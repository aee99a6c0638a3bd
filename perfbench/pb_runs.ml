(* The four workloads: set-up, closed-loop load, audits and the counters
   each run exposes.

   Clients are the completion-driven virtual clients of [Runtime.Db.Load]
   and [Harness.run_load]. Transient aborts are retried with the harnesses'
   default backoff, so a logical operation fails only when its last attempt
   ends in a non-transient system abort or exhausts its retries; user
   aborts are completed operations. *)

open Pb_common
module RDb = Runtime.Db
module W = Workloads
module SB = Workloads.Smallbank

(* Retries are unbounded in practice: at drain no new work arrives, so a
   retried transaction always commits in the end. *)
let max_retries = 1_000_000
let warmup_s = 1.0

(* A runtime run measures [windows] equal windows back to back. On a shared
   virtual machine the host takes CPUs away for whole milliseconds at a
   time, which slows single windows by up to half. The gated figure is
   therefore a CPU cost per transaction (process CPU time does not count
   stolen time), pooled over the cheapest three quarters of the windows:
   interference only ever adds cost, and pooling keeps the rare heavy
   transactions of a mix (TPC-C's delivery) from swinging the figure.
   Wall-clock timings are reported from the best window. Later windows
   re-warm briefly after the previous window's drain. *)
let windows = 20
let rewarm_s = 0.05

(* Deal [xs] round-robin into [k] groups (shared-nothing placement). *)
let chunk k xs =
  let groups = Array.make k [] in
  List.iteri (fun i x -> groups.(i mod k) <- x :: groups.(i mod k)) xs;
  Array.to_list (Array.map List.rev groups)

let count_of kind kinds = Option.value ~default:0 (List.assoc_opt kind kinds)

let sum_counts kinds names = List.fold_left (fun a k -> a + count_of k kinds) 0 names

(* Engine buckets ending a logical operation: everything but the
   ["validation"] bucket, whose aborts are transient and retried. *)
let final_abort_buckets = [ "user"; "dangerous-structure"; "timeout"; "overloaded" ]

(* Attempt accounting. Each operation the clients generated must end in
   exactly one commit or one non-retried abort, and every other aborted
   attempt is a retry: committed + aborted = attempts = operations +
   retries, with operations counted at the client and attempts by the
   engine. *)
let accounting ~generated ~committed ~by_reason =
  let final = committed + sum_counts by_reason final_abort_buckets in
  if final = generated then []
  else
    [ Printf.sprintf
        "accounting: %d operations generated but %d ended (%d committed, \
         %d final aborts); an operation exhausted its retries or was lost"
        generated final committed (final - committed) ]

(* ------------------------------------------------------------------ *)
(* Runtime workloads                                                   *)

type rt_workload = {
  decl : Reactor.decl;
  cfg : Reactdb.Config.t;
  clients : int;
  make_gen : RDb.t -> int -> Util.Rng.t -> W.Wl.request;
      (** fresh generator state per runtime *)
  durable : bool;
  epoch_len_s : float option;
  audit : RDb.t -> string list;  (** invariant checks after shutdown *)
  settings : (string * string) list;
}

(* TPC-C ------------------------------------------------------------- *)

let tpcc_sizes =
  { W.Tpcc.districts = 10; customers_per_district = 3000; items = 100_000;
    preloaded_orders = 3000 }

let tpcc_warehouses = 2

let fold_live table f init =
  let acc = ref init in
  Storage.Table.range table ~f:(fun r ->
      if not r.Storage.Record.absent then acc := f !acc r.Storage.Record.data;
      true);
  !acc

(* TPC-C consistency conditions 1 and 2 on every warehouse:
   W_YTD = sum D_YTD, and D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID). *)
let tpcc_audit db =
  List.concat_map
    (fun w ->
      let cat = RDb.catalog_of db w in
      let tbl = Storage.Catalog.table cat in
      let fl v = Util.Value.to_float v and it v = Util.Value.to_int v in
      let w_ytd = fold_live (tbl "warehouse") (fun a row -> a +. fl row.(3)) 0. in
      let d_ytd = fold_live (tbl "district") (fun a row -> a +. fl row.(2)) 0. in
      let c1 =
        if Float.abs (w_ytd -. d_ytd) <= 1e-6 *. Float.abs w_ytd then []
        else [ Printf.sprintf "%s: W_YTD %.2f <> sum D_YTD %.2f" w w_ytd d_ytd ]
      in
      let max_per_district table =
        let m = Hashtbl.create 16 in
        fold_live (tbl table)
          (fun () row ->
            let d = it row.(0) and o = it row.(1) in
            let cur = Option.value ~default:0 (Hashtbl.find_opt m d) in
            Hashtbl.replace m d (max cur o))
          ();
        m
      in
      let max_o = max_per_district "orders" and max_no = max_per_district "new_order" in
      let c2 =
        fold_live (tbl "district")
          (fun acc row ->
            let d = it row.(0) and next = it row.(3) in
            let mo = Hashtbl.find_opt max_o d and mno = Hashtbl.find_opt max_no d in
            if mo = Some (next - 1) && (mno = None || mno = Some (next - 1)) then acc
            else
              Printf.sprintf "%s district %d: D_NEXT_O_ID-1 = %d, max O_ID = %s, max NO_O_ID = %s"
                w d (next - 1)
                (Option.fold ~none:"-" ~some:string_of_int mo)
                (Option.fold ~none:"-" ~some:string_of_int mno)
              :: acc)
          []
      in
      c1 @ c2)
    (W.Tpcc.warehouses tpcc_warehouses)

(* TPC-C clause 2.4.1.4: 1% of new-orders name an unused item on their
   last line and roll back, a user abort. *)
let with_unused_item rng params (req : W.Wl.request) =
  if req.W.Wl.proc <> params.W.Tpcc.no_proc || Util.Rng.int rng 100 <> 0 then req
  else
    let last = List.length req.W.Wl.args - 3 in
    { req with
      W.Wl.args =
        List.mapi
          (fun i v -> if i = last then W.Wl.vi (tpcc_sizes.W.Tpcc.items + 1) else v)
          req.W.Wl.args }

let tpcc () =
  let ws = W.Tpcc.warehouses tpcc_warehouses in
  let params = W.Tpcc.params ~sizes:tpcc_sizes tpcc_warehouses in
  { decl = W.Tpcc.decl ~warehouses:tpcc_warehouses ~sizes:tpcc_sizes ();
    cfg = Reactdb.Config.shared_nothing (List.map (fun w -> [ w ]) ws);
    clients = tpcc_warehouses;
    (* One client per home warehouse. Each client owns its [seq] range
       (history ids and the logical clock), so no counter is shared between
       the domains whose completion callbacks run the generators. *)
    make_gen =
      (fun _db ->
        let seqs = Array.init tpcc_warehouses (fun w -> ref ((w + 1) * 1_000_000_000)) in
        fun w rng ->
          with_unused_item rng params (W.Tpcc.gen_mix rng params ~home:(w + 1) ~seq:seqs.(w)));
    durable = false;
    epoch_len_s = None;
    audit = tpcc_audit;
    settings =
      [ ("warehouses", string_of_int tpcc_warehouses); ("containers", "2");
        ("clients", "2 (one per home warehouse)"); ("router", "affinity");
        ("districts", string_of_int tpcc_sizes.W.Tpcc.districts);
        ("customers_per_district", string_of_int tpcc_sizes.W.Tpcc.customers_per_district);
        ("items", string_of_int tpcc_sizes.W.Tpcc.items);
        ("preloaded_orders_per_district", string_of_int tpcc_sizes.W.Tpcc.preloaded_orders);
        ("mix", "standard 45/43/4/4/4") ] }

(* YCSB ---------------------------------------------------------------- *)

let ycsb_keys = 4096
let ycsb_theta = 0.5

let ycsb_audit db =
  let rows_ok =
    List.filter_map
      (fun (reactor, table, rows) ->
        if List.length rows = 1 then None
        else Some (Printf.sprintf "%s.%s holds %d rows" reactor table (List.length rows)))
      (Faultsim.snapshot (RDb.catalogs db))
  in
  let sec =
    match Faultsim.check_secondaries (RDb.catalogs db) with
    | Ok () -> []
    | Error m -> [ "secondary-index audit: " ^ m ]
  in
  rows_ok @ sec

let ycsb ~containers ~clients ~durable ~epoch_len_s =
  let keys = W.Ycsb.keys ycsb_keys in
  let params = W.Ycsb.params ~txn_keys:10 ~theta:ycsb_theta ycsb_keys in
  { decl = W.Ycsb.decl ~keys:ycsb_keys ();
    cfg = Reactdb.Config.shared_nothing (chunk containers keys);
    clients;
    (* Placement comes from the runtime itself: keys are dealt round-robin,
       so remote-first ordering must ask the runtime, not assume ranges.
       Each operation writes its own value, so an update missing from the
       log shows in recovery instead of being masked by a later identical
       write. *)
    make_gen =
      (fun db ->
        let container_of = RDb.container_of db in
        let seqs = Array.make clients 0 in
        fun w rng ->
          let req = W.Ycsb.gen_multi_update rng params ~container_of in
          seqs.(w) <- seqs.(w) + 1;
          let v = Printf.sprintf "%d.%d" w seqs.(w) in
          let v = v ^ String.make (100 - String.length v) 'y' in
          { req with W.Wl.args = W.Wl.vs v :: List.tl req.W.Wl.args });
    durable;
    epoch_len_s;
    audit = ycsb_audit;
    settings =
      [ ("keys", string_of_int ycsb_keys); ("theta", string_of_float ycsb_theta);
        ("txn_keys", "10"); ("containers", string_of_int containers);
        ("clients", string_of_int clients); ("placement", "round-robin deal") ]
      @ (if durable then
           [ ("epoch_len_s", Printf.sprintf "%g" (Option.get epoch_len_s));
             ("flush_policy", "one buffered Wal.flush per closed epoch, no fsync") ]
         else []) }

let ycsb_2pc () = ycsb ~containers:2 ~clients:16 ~durable:false ~epoch_len_s:None

let ycsb_durable () =
  ycsb ~containers:1 ~clients:128 ~durable:true ~epoch_len_s:(Some 0.005)

(* One runtime from bootstrap to shutdown -------------------------------- *)

type window = { ld : RDb.Load.result; cpu : float; commits : int }

type rt_run = {
  setup_s : float;  (** CPU seconds of bootstrap and loaders *)
  wins : window list;
  generated : int;
  committed : int;  (** engine totals over the whole run, warm-up included *)
  aborted : int;
  by_reason : (string * int) list;
  run_s : float;
  gc_metrics : metric list;
  heap_mb : float;  (** top heap after set-up and the first window *)
  wal : (float * int * int * float) option;
      (** file bytes, entries, flushes, flush µs *)
  report : Obs.Report.t option;
  failures : string list;
}

(* Whole-window accessors over a run. *)
let loads r = List.map (fun w -> w.ld) r.wins
let best pick f r = List.fold_left (fun a w -> pick a (f w.ld)) (f (List.hd r.wins).ld) r.wins
let tput r = best Float.max (fun l -> l.RDb.Load.throughput) r
let p50_us r = best Float.min (fun l -> l.RDb.Load.p50_us) r
let p99_us r = best Float.min (fun l -> l.RDb.Load.p99_us) r
let cpu_us_per_txn r = pooled_cost (List.map (fun w -> (w.cpu, w.commits)) r.wins)

let scratch_dir = Filename.concat ".bench_build" "perfbench-tmp"

let wal_file () =
  (try Sys.mkdir ".bench_build" 0o755 with Sys_error _ -> ());
  (try Sys.mkdir scratch_dir 0o755 with Sys_error _ -> ());
  let p = Filename.concat scratch_dir (Printf.sprintf "wal-%d.log" (Unix.getpid ())) in
  if Sys.file_exists p then Sys.remove p;
  p

let start w =
  let wal_path = if w.durable then Some (wal_file ()) else None in
  let log = Option.map Wal.to_file wal_path in
  let c0 = cpu_s () in
  let db = RDb.start ?wal:log ?epoch_len_s:w.epoch_len_s w.decl w.cfg in
  (db, cpu_s () -. c0, Option.map (fun p -> (p, Option.get log)) wal_path)

let discard_wal = Option.iter (fun (p, log) -> Wal.close log; Sys.remove p)

(* A set-up that is timed and then thrown away. *)
let setup_only w =
  let db, s, wal = start w in
  RDb.shutdown db;
  discard_wal wal;
  s

let durable_audit w db (path, log) =
  Wal.close log;
  let rc = Faultsim.recover ~log:path w.decl in
  let tail =
    match rc.Faultsim.rc_tail with
    | Wal.Clean -> []
    | Wal.Torn { valid; reason } ->
      [ Printf.sprintf "WAL torn after %d records: %s" valid reason ]
  in
  let same =
    match
      Faultsim.diff (Faultsim.snapshot rc.Faultsim.rc_catalogs)
        (Faultsim.snapshot (RDb.catalogs db))
    with
    | None -> []
    | Some d -> [ "recovered WAL differs from the live catalogs: " ^ d ]
  in
  tail @ same

let run_rt w ~seed ~seconds ~traced =
  let db, setup_s, wal = start w in
  let report =
    if traced then begin
      let c = Obs.Collector.create ~clock:Obs.Wall ~containers:(RDb.n_domains db) () in
      RDb.attach_obs db c;
      Some c
    end
    else None
  in
  let generated = Atomic.make 0 in
  let gen =
    let g = w.make_gen db in
    fun i rng ->
      Atomic.incr generated;
      g i rng
  in
  let heap_mb = ref 0. in
  let window i =
    let c0 = cpu_s () and n0 = RDb.n_committed db in
    let ld =
      RDb.Load.run db
        (RDb.Load.spec
           ~warmup_s:(if i = 0 then warmup_s else rewarm_s)
           ~measure_s:(seconds /. float_of_int windows)
           ~seed:(seed + (i * 104_729)) ~max_retries ~n_workers:w.clients gen)
    in
    let cpu = cpu_s () -. c0 and commits = RDb.n_committed db - n0 in
    if i = 0 then heap_mb := top_heap_mb ();
    log "window %2d: %6.0f/s  p50 %6.0f us  p99 %6.0f us  %4.1f%% aborted  cpu %6.1f us/txn" i
      ld.RDb.Load.throughput ld.RDb.Load.p50_us ld.RDb.Load.p99_us
      (100. *. ld.RDb.Load.abort_rate)
      (cpu *. 1e6 /. float_of_int (max 1 commits));
    { ld; cpu; commits }
  in
  (* Start every measured load from a completed major cycle, so loader
     garbage is not collected inside the windows. *)
  Gc.full_major ();
  let before = gc_mark () in
  let wins, run_s = time (fun () -> List.init windows window) in
  RDb.shutdown db;
  let after = gc_mark () in
  let t_audit = now_s () in
  let committed = RDb.n_committed db and aborted = RDb.n_aborted db in
  let by_reason = RDb.aborts_by_reason db in
  let generated = Atomic.get generated in
  let wal_stats =
    Option.map
      (fun (p, log) ->
        ((Unix.stat p).Unix.st_size |> float_of_int, Wal.length log,
         Wal.n_flushes log, Wal.flush_time_us log))
      wal
  in
  let fatal =
    if RDb.n_fatal db = 0 then []
    else
      [ Printf.sprintf "%d internal errors (first: %s)" (RDb.n_fatal db)
          (match RDb.fatal_messages db with m :: _ -> m | [] -> "?") ]
  in
  let failures =
    fatal
    @ accounting ~generated ~committed ~by_reason
    @ w.audit db
    @ (match wal with Some wl -> durable_audit w db wl | None -> [])
  in
  Option.iter (fun (p, _) -> if Sys.file_exists p then Sys.remove p) wal;
  log "set-up %.2f s cpu, load %.2f s, audits %.2f s" setup_s run_s (now_s () -. t_audit);
  { setup_s; wins; generated; committed; aborted; by_reason; run_s;
    gc_metrics = gc_metrics ~before ~after ~txns:(committed + aborted) ~seconds:run_s;
    heap_mb = !heap_mb; wal = wal_stats; report = Option.map Obs.Report.summarize report;
    failures }

(* ------------------------------------------------------------------ *)
(* smallbank_sim                                                       *)

let sb_customers = 8000
let sb_containers = 4
let sb_clients = 16

(* Fixed virtual duration of one simulated batch. *)
let sb_epochs = 20
let sb_epoch_us = 20_000.
let sb_sample_us = 10_000.

let sb_settings =
  [ ("customers", string_of_int sb_customers);
    ("containers", string_of_int sb_containers);
    ("clients", string_of_int sb_clients); ("mix", "conserving smallbank");
    ("virtual_us_per_batch", Printf.sprintf "%.0f" (float_of_int sb_epochs *. sb_epoch_us)) ]

type sim_batch = {
  sb_setup_s : float;  (** CPU seconds of [Harness.build] *)
  sb_run_s : float;  (** wall seconds of the simulation *)
  sb_samples : (float * int) list;
      (** (CPU seconds, commits) per [sb_sample_us] of simulated time *)
  sb_result : Harness.run_result;
  sb_generated : int;
  sb_committed : int;
  sb_aborted : int;
  sb_by_reason : (string * int) list;
  sb_events : int;
  sb_failures : string list;
}

let sim_batch ~seed ~collector =
  let decl = SB.decl ~customers:sb_customers () in
  let cfg = Reactdb.Config.shared_nothing (chunk sb_containers (SB.customers sb_customers)) in
  let c0 = cpu_s () in
  let db = Harness.build decl cfg in
  let sb_setup_s = cpu_s () -. c0 in
  Option.iter (Reactdb.Database.attach_obs db) collector;
  let generated = ref 0 in
  let gen _w rng =
    incr generated;
    SB.gen_conserving rng ~n:sb_customers
  in
  (* No warm-up epochs: engine counters then cover every attempt. *)
  let spec =
    Harness.spec ~epochs:sb_epochs ~epoch_us:sb_epoch_us ~warmup_epochs:0 ~seed
      ~max_retries ~n_workers:sb_clients gen
  in
  let eng = Reactdb.Database.engine db in
  (* A probe process samples CPU time and commits every [sb_sample_us] of
     simulated time, so the CPU cost is measured over many short intervals
     like the runtime's windows. *)
  let samples = ref [] in
  Sim.Engine.spawn eng (fun () ->
      let c = ref (cpu_s ()) and n = ref 0 in
      for _ = 1 to int_of_float (float_of_int sb_epochs *. sb_epoch_us /. sb_sample_us) do
        Sim.Engine.delay sb_sample_us;
        let c' = cpu_s () and n' = Reactdb.Database.n_committed db in
        samples := (c' -. !c, n' - !n) :: !samples;
        c := c';
        n := n'
      done);
  let ev0 = Sim.Engine.events_executed eng in
  (* As for the runtime: earlier batches' garbage is not collected inside
     the measured simulation. *)
  Gc.full_major ();
  let r, sb_run_s = time (fun () -> Harness.run_load db spec) in
  let sb_events = Sim.Engine.events_executed eng - ev0 in
  let sb_committed = Reactdb.Database.n_committed db in
  let sb_aborted = Reactdb.Database.n_aborted db in
  let sb_by_reason = Reactdb.Database.aborts_by_reason db in
  let expected = float_of_int sb_customers *. 2. *. 10_000. in
  let got =
    SB.total_money (List.map (Reactdb.Database.catalog_of db) (SB.customers sb_customers))
  in
  let money =
    if Float.abs (got -. expected) < 1e-6 then []
    else [ Printf.sprintf "money not conserved: expected %.2f, got %.2f" expected got ]
  in
  log "batch: %d committed in %.2f s, %.2f us cpu per txn" sb_committed sb_run_s
    (pooled_cost !samples);
  { sb_setup_s; sb_run_s; sb_samples = !samples;
    sb_result = r; sb_generated = !generated; sb_committed;
    sb_aborted; sb_by_reason; sb_events;
    sb_failures =
      money
      @ accounting ~generated:!generated ~committed:sb_committed ~by_reason:sb_by_reason }

(* Batches of identical simulated length, each on a fresh database with
   its own seed, until [seconds] of wall-clock simulation have run (at
   least [min_batches]). Also returns the top heap after the first batch. *)
let sim_batches ?collector ~seed ~seconds ~min_batches () =
  let heap_mb = ref 0. in
  let rec go i spent acc =
    if i >= min_batches && spent >= seconds then List.rev acc
    else begin
      let b = sim_batch ~seed:((seed * 7919) + i) ~collector in
      if i = 0 then heap_mb := top_heap_mb ();
      go (i + 1) (spent +. b.sb_run_s) (b :: acc)
    end
  in
  let bs = go 0 0. [] in
  (bs, !heap_mb)
