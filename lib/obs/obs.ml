module Json = Json

type clock = Virtual | Wall

let clock_name = function Virtual -> "virtual" | Wall -> "wall"

let clock_of_name = function
  | "virtual" -> Some Virtual
  | "wall" -> Some Wall
  | _ -> None

module Phase = struct
  type t =
    | Queue_wait
    | Exec
    | Suspend_wait
    | Validation
    | Commit
    | Flush_wait
    | Overhead

  let all =
    [ Queue_wait; Exec; Suspend_wait; Validation; Commit; Flush_wait; Overhead ]

  let count = 7

  let index = function
    | Queue_wait -> 0
    | Exec -> 1
    | Suspend_wait -> 2
    | Validation -> 3
    | Commit -> 4
    | Flush_wait -> 5
    | Overhead -> 6

  let name = function
    | Queue_wait -> "queue_wait"
    | Exec -> "exec"
    | Suspend_wait -> "suspend_wait"
    | Validation -> "validation"
    | Commit -> "commit"
    | Flush_wait -> "flush_wait"
    | Overhead -> "overhead"

  let of_name = function
    | "queue_wait" -> Some Queue_wait
    | "exec" -> Some Exec
    | "suspend_wait" -> Some Suspend_wait
    | "validation" -> Some Validation
    | "commit" -> Some Commit
    | "flush_wait" -> Some Flush_wait
    | "overhead" -> Some Overhead
    | _ -> None
end

module Abort = struct
  type kind =
    | User
    | Conflict
    | Lock_busy
    | Stale_read
    | Node_changed
    | Key_exists
    | Dangerous
    | Internal
    | Timeout
    | Overloaded

  let all_kinds =
    [ User; Conflict; Lock_busy; Stale_read; Node_changed; Key_exists;
      Dangerous; Internal; Timeout; Overloaded ]

  let kind_index = function
    | User -> 0
    | Conflict -> 1
    | Lock_busy -> 2
    | Stale_read -> 3
    | Node_changed -> 4
    | Key_exists -> 5
    | Dangerous -> 6
    | Internal -> 7
    | Timeout -> 8
    | Overloaded -> 9

  let n_kinds = 10

  let kind_name = function
    | User -> "user"
    | Conflict -> "conflict"
    | Lock_busy -> "lock-busy"
    | Stale_read -> "stale-read"
    | Node_changed -> "node-changed"
    | Key_exists -> "key-exists"
    | Dangerous -> "dangerous-structure"
    | Internal -> "internal"
    | Timeout -> "timeout"
    | Overloaded -> "overloaded"

  let kind_of_name = function
    | "user" -> Some User
    | "conflict" -> Some Conflict
    | "lock-busy" -> Some Lock_busy
    | "stale-read" -> Some Stale_read
    | "node-changed" -> Some Node_changed
    | "key-exists" -> Some Key_exists
    | "dangerous-structure" -> Some Dangerous
    | "internal" -> Some Internal
    | "timeout" -> Some Timeout
    | "overloaded" -> Some Overloaded
    | _ -> None

  (* Timeout and Overloaded are deliberately non-transient: a deadline that
     expired has spent the transaction's whole latency budget, and an
     admission shed means the system is asking for LESS offered load — an
     automatic in-loop retry would defeat both. Re-attempting is the
     client's decision, with a fresh deadline and its own backoff. *)
  let transient = function
    | Conflict | Lock_busy | Stale_read | Node_changed | Key_exists -> true
    | User | Dangerous | Internal | Timeout | Overloaded -> false

  exception Timed_out of string

  type cause = { kind : kind; participants : int; retry : int }

  let cause ?(participants = 1) ?(retry = 0) kind = { kind; participants; retry }
end

module Trace = struct
  type t = { enabled : bool; ph : float array }

  let none = { enabled = false; ph = [||] }
  let make () = { enabled = true; ph = Array.make Phase.count 0. }
  let enabled t = t.enabled

  let add t p d =
    if t.enabled then begin
      let i = Phase.index p in
      if d > 0. then t.ph.(i) <- t.ph.(i) +. d
    end

  let get t p = if t.enabled then t.ph.(Phase.index p) else 0.

  let sum_measured t =
    if not t.enabled then 0.
    else begin
      (* every slot except the derived Overhead (last index) *)
      let s = ref 0. in
      for i = 0 to Phase.count - 2 do
        s := !s +. t.ph.(i)
      done;
      !s
    end

  let reset t = if t.enabled then Array.fill t.ph 0 Phase.count 0.
end

(* log2 bucket: b such that d in [2^(b-1), 2^b) microseconds, clamped to
   [0, 31]. frexp gives d = m * 2^e with m in [0.5, 1). *)
let log2_bucket d =
  if d < 1. then 0
  else
    let _, e = Float.frexp d in
    if e > 31 then 31 else e

let hist_buckets = 32
let max_part_bucket = 16 (* participants / retry-index histograms clamp here *)

(* One replica's shipping lag, published at quiescence by whoever runs the
   log shipper (Replica.Shipper.publish_obs). Applied epoch is the replica's
   durable watermark; behind = primary durable epoch - watermark. *)
type repl_row = {
  rr_replica : int;
  rr_applied_epoch : int;
  rr_epochs_behind : int;
  rr_bytes_behind : int;
  rr_batches : int; (* shipped batches applied *)
  rr_drops : int; (* batches lost/refused in flight (chaos or torn) *)
}

module Collector = struct
  type slot = {
    sums : float array; (* per phase, all attempts *)
    occs : int array; (* per phase, attempts where the phase was > 0 *)
    hist : int array array; (* per phase, log2 buckets *)
    res : Util.Stats.Reservoir.r array; (* per phase, non-zero occurrences *)
    lat_res : Util.Stats.Reservoir.r;
    mutable attempts : int;
    mutable commits : int;
    mutable ro_commits : int;
        (* subset of [commits] that ran as read-only snapshot transactions
           (no validation, no locks — abort-free by construction) *)
    mutable aborts : int;
    mutable lat_sum : float;
    ab_kinds : int array;
    parts : int array; (* participants -> attempts *)
    retries : int array; (* retry index -> attempts *)
    mutable max_dev : float; (* worst |latency - sum phases| / latency *)
    (* scheduler signals, published once at quiescence by the runtime
       (Runtime.Db.publish_sched_obs); all zero for the simulator *)
    mutable routed_by_cost : int;
    mutable qdepth_ewma : float;
  }

  type t = {
    clk : clock;
    slots : slot array;
    mutable repl : repl_row list;
        (* replication lag rows, published once at quiescence; empty when
           no replicas are attached *)
  }

  let mk_slot cap seed =
    {
      sums = Array.make Phase.count 0.;
      occs = Array.make Phase.count 0;
      hist = Array.init Phase.count (fun _ -> Array.make hist_buckets 0);
      res =
        Array.init Phase.count (fun i ->
            Util.Stats.Reservoir.create ~seed:(seed + i) cap);
      lat_res = Util.Stats.Reservoir.create ~seed:(seed + Phase.count) cap;
      attempts = 0;
      commits = 0;
      ro_commits = 0;
      aborts = 0;
      lat_sum = 0.;
      ab_kinds = Array.make Abort.n_kinds 0;
      parts = Array.make (max_part_bucket + 1) 0;
      retries = Array.make (max_part_bucket + 1) 0;
      max_dev = 0.;
      routed_by_cost = 0;
      qdepth_ewma = 0.;
    }

  let create ?(reservoir_cap = 1024) ~clock ~containers () =
    if containers <= 0 then invalid_arg "Obs.Collector.create";
    {
      clk = clock;
      slots =
        Array.init containers (fun c -> mk_slot reservoir_cap (0x0b5 + (c * 64)));
      repl = [];
    }

  let clock t = t.clk
  let containers t = Array.length t.slots
  let trace _t = Trace.make ()

  let slot_of t c =
    let n = Array.length t.slots in
    if c >= 0 && c < n then t.slots.(c) else t.slots.(0)

  let clamp_bucket i = if i < 0 then 0 else min i max_part_bucket

  let record_attempt t ~container ~participants ~retry ~latency_us tr =
    let s = slot_of t container in
    s.attempts <- s.attempts + 1;
    s.lat_sum <- s.lat_sum +. latency_us;
    Util.Stats.Reservoir.add s.lat_res latency_us;
    s.parts.(clamp_bucket participants) <- s.parts.(clamp_bucket participants) + 1;
    s.retries.(clamp_bucket retry) <- s.retries.(clamp_bucket retry) + 1;
    if Trace.enabled tr then begin
      let measured = Trace.sum_measured tr in
      let overhead = latency_us -. measured in
      if overhead > 0. then Trace.add tr Phase.Overhead overhead
      else if latency_us > 0. then begin
        (* negative remainder: phases double-counted beyond the latency;
           keep the evidence so the 1% gate can catch it. *)
        let dev = (measured -. latency_us) /. latency_us in
        if dev > s.max_dev then s.max_dev <- dev
      end;
      List.iter
        (fun p ->
          let i = Phase.index p in
          let d = Trace.get tr p in
          s.sums.(i) <- s.sums.(i) +. d;
          if d > 0. then begin
            s.occs.(i) <- s.occs.(i) + 1;
            s.hist.(i).(log2_bucket d) <- s.hist.(i).(log2_bucket d) + 1;
            Util.Stats.Reservoir.add s.res.(i) d
          end)
        Phase.all
    end

  let record_commit t ~container ?(participants = 1) ?(retry = 0)
      ?(readonly = false) ~latency_us tr =
    let s = slot_of t container in
    s.commits <- s.commits + 1;
    if readonly then s.ro_commits <- s.ro_commits + 1;
    record_attempt t ~container ~participants ~retry ~latency_us tr

  let set_sched t ~container ~routed_by_cost ~qdepth_ewma =
    let s = slot_of t container in
    s.routed_by_cost <- routed_by_cost;
    s.qdepth_ewma <- qdepth_ewma

  let set_repl t rows = t.repl <- rows

  let queue_wait_mean_us t ~container =
    let s = slot_of t container in
    if s.attempts = 0 then 0.
    else s.sums.(Phase.index Phase.Queue_wait) /. float_of_int s.attempts

  let record_abort t ~container ~latency_us ~cause tr =
    let s = slot_of t container in
    s.aborts <- s.aborts + 1;
    s.ab_kinds.(Abort.kind_index cause.Abort.kind) <-
      s.ab_kinds.(Abort.kind_index cause.Abort.kind) + 1;
    record_attempt t ~container ~participants:cause.Abort.participants
      ~retry:cause.Abort.retry ~latency_us tr
end

module Report = struct
  (* v4: scheduler rows drop the "steals_in"/"steals_out" fields. v3 added
     per-domain scheduler rows (cost-routed roots, queue-depth EWMA). v2
     added the "timeout" and "overloaded" abort kinds. Readers accept v2
     (scheduler rows default to empty) through v4, ignoring the steal
     fields of v3 rows; anything else is rejected. The "replication" array
     (per-replica lag rows) is additive since v3: emitted only when
     replicas were attached, defaulted to empty on read. *)
  let schema_version = 4

  let min_readable_version = 2

  type phase_row = {
    pr_phase : string;
    pr_count : int;
    pr_sum_us : float;
    pr_mean_us : float;
    pr_p50_us : float;
    pr_p95_us : float;
    pr_p99_us : float;
    pr_share_pct : float;
    pr_hist : (int * int) list;
  }

  (* One domain's scheduler counters (v3). Only domains with at least one
     non-zero signal are exported. *)
  type sched_row = {
    sr_container : int;
    sr_routed_by_cost : int;
    sr_qdepth_ewma : float;
  }

  type t = {
    r_clock : string;
    r_attempts : int;
    r_commits : int;
    r_ro_commits : int;
    r_aborts : int;
    r_retries : int;
    r_mean_latency_us : float;
    r_lat_p50_us : float;
    r_lat_p95_us : float;
    r_lat_p99_us : float;
    r_max_sum_dev_pct : float;
    r_phases : phase_row list;
    r_aborts_by_kind : (string * int) list;
    r_participants : (int * int) list;
    r_retry_hist : (int * int) list;
    r_sched : sched_row list;
    r_repl : repl_row list;
  }

  (* Nearest-rank percentile over pooled reservoir snapshots. *)
  let pooled_percentile arrays p =
    let total = List.fold_left (fun a xs -> a + Array.length xs) 0 arrays in
    if total = 0 then 0.
    else begin
      let all = Array.make total 0. in
      let off = ref 0 in
      List.iter
        (fun xs ->
          Array.blit xs 0 all !off (Array.length xs);
          off := !off + Array.length xs)
        arrays;
      Array.sort Float.compare all;
      let rank = int_of_float (ceil (p /. 100. *. float_of_int total)) in
      all.(max 0 (min (total - 1) (rank - 1)))
    end

  let sparse_hist counts =
    let acc = ref [] in
    for i = Array.length counts - 1 downto 0 do
      if counts.(i) > 0 then acc := (i, counts.(i)) :: !acc
    done;
    !acc

  let summarize (c : Collector.t) =
    let slots = Array.to_list c.Collector.slots in
    let fold f init = List.fold_left f init slots in
    let attempts = fold (fun a s -> a + s.Collector.attempts) 0 in
    let commits = fold (fun a s -> a + s.Collector.commits) 0 in
    let ro_commits = fold (fun a s -> a + s.Collector.ro_commits) 0 in
    let aborts = fold (fun a s -> a + s.Collector.aborts) 0 in
    let lat_sum = fold (fun a s -> a +. s.Collector.lat_sum) 0. in
    let max_dev = fold (fun a s -> Float.max a s.Collector.max_dev) 0. in
    let lat_samples =
      List.map (fun s -> Util.Stats.Reservoir.samples s.Collector.lat_res) slots
    in
    let phases =
      List.map
        (fun p ->
          let i = Phase.index p in
          let sum = fold (fun a s -> a +. s.Collector.sums.(i)) 0. in
          let occ = fold (fun a s -> a + s.Collector.occs.(i)) 0 in
          let hist = Array.make hist_buckets 0 in
          List.iter
            (fun s ->
              Array.iteri
                (fun b n -> hist.(b) <- hist.(b) + n)
                s.Collector.hist.(i))
            slots;
          let samples =
            List.map
              (fun s -> Util.Stats.Reservoir.samples s.Collector.res.(i))
              slots
          in
          {
            pr_phase = Phase.name p;
            pr_count = occ;
            pr_sum_us = sum;
            pr_mean_us = (if attempts = 0 then 0. else sum /. float_of_int attempts);
            pr_p50_us = pooled_percentile samples 50.;
            pr_p95_us = pooled_percentile samples 95.;
            pr_p99_us = pooled_percentile samples 99.;
            pr_share_pct = (if lat_sum <= 0. then 0. else 100. *. sum /. lat_sum);
            pr_hist = sparse_hist hist;
          })
        Phase.all
    in
    let aborts_by_kind =
      List.filter_map
        (fun k ->
          let i = Abort.kind_index k in
          let n = fold (fun a s -> a + s.Collector.ab_kinds.(i)) 0 in
          if n = 0 then None else Some (Abort.kind_name k, n))
        Abort.all_kinds
    in
    let sparse_ints sel =
      let acc = Array.make (max_part_bucket + 1) 0 in
      List.iter
        (fun s -> Array.iteri (fun i n -> acc.(i) <- acc.(i) + n) (sel s))
        slots;
      sparse_hist acc
    in
    let retry_hist = sparse_ints (fun s -> s.Collector.retries) in
    let retries =
      List.fold_left (fun a (i, n) -> if i > 0 then a + n else a) 0 retry_hist
    in
    let sched =
      List.concat
        (List.mapi
           (fun i s ->
             if s.Collector.routed_by_cost = 0 && s.Collector.qdepth_ewma = 0.
             then []
             else
               [
                 {
                   sr_container = i;
                   sr_routed_by_cost = s.Collector.routed_by_cost;
                   sr_qdepth_ewma = s.Collector.qdepth_ewma;
                 };
               ])
           slots)
    in
    {
      r_clock = clock_name c.Collector.clk;
      r_attempts = attempts;
      r_commits = commits;
      r_ro_commits = ro_commits;
      r_aborts = aborts;
      r_retries = retries;
      r_mean_latency_us =
        (if attempts = 0 then 0. else lat_sum /. float_of_int attempts);
      r_lat_p50_us = pooled_percentile lat_samples 50.;
      r_lat_p95_us = pooled_percentile lat_samples 95.;
      r_lat_p99_us = pooled_percentile lat_samples 99.;
      r_max_sum_dev_pct = 100. *. max_dev;
      r_phases = phases;
      r_aborts_by_kind = aborts_by_kind;
      r_participants = sparse_ints (fun s -> s.Collector.parts);
      r_retry_hist = retry_hist;
      r_sched = sched;
      r_repl = c.Collector.repl;
    }

  let to_table r =
    let buf = Buffer.create 1024 in
    let title =
      Printf.sprintf
        "transaction phase breakdown (clock=%s, attempts=%d, commits=%d, \
         ro-commits=%d, aborts=%d)"
        r.r_clock r.r_attempts r.r_commits r.r_ro_commits r.r_aborts
    in
    let t =
      Util.Tablefmt.create ~title
        [ "phase"; "count"; "mean us"; "p50 us"; "p95 us"; "p99 us"; "share %" ]
    in
    List.iter
      (fun p ->
        Util.Tablefmt.row t
          [
            p.pr_phase;
            Util.Tablefmt.icell p.pr_count;
            Util.Tablefmt.fcell ~digits:2 p.pr_mean_us;
            Util.Tablefmt.fcell ~digits:2 p.pr_p50_us;
            Util.Tablefmt.fcell ~digits:2 p.pr_p95_us;
            Util.Tablefmt.fcell ~digits:2 p.pr_p99_us;
            Util.Tablefmt.fcell ~digits:1 p.pr_share_pct;
          ])
      r.r_phases;
    Buffer.add_string buf (Util.Tablefmt.to_string t);
    Buffer.add_string buf
      (Printf.sprintf
         "mean latency %.2f us  p50 %.2f  p95 %.2f  p99 %.2f  max phase-sum dev %.3f%%  retries %d\n"
         r.r_mean_latency_us r.r_lat_p50_us r.r_lat_p95_us r.r_lat_p99_us
         r.r_max_sum_dev_pct r.r_retries);
    if r.r_aborts_by_kind <> [] then begin
      let ta = Util.Tablefmt.create ~title:"abort taxonomy" [ "kind"; "count" ] in
      List.iter
        (fun (k, n) -> Util.Tablefmt.row ta [ k; Util.Tablefmt.icell n ])
        r.r_aborts_by_kind;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Util.Tablefmt.to_string ta)
    end;
    if r.r_sched <> [] then begin
      let ts =
        Util.Tablefmt.create ~title:"scheduler (per domain)"
          [ "domain"; "cost-routed"; "qdepth ewma" ]
      in
      List.iter
        (fun s ->
          Util.Tablefmt.row ts
            [
              Util.Tablefmt.icell s.sr_container;
              Util.Tablefmt.icell s.sr_routed_by_cost;
              Util.Tablefmt.fcell ~digits:2 s.sr_qdepth_ewma;
            ])
        r.r_sched;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Util.Tablefmt.to_string ts)
    end;
    if r.r_repl <> [] then begin
      let tr =
        Util.Tablefmt.create ~title:"replication lag (per replica)"
          [
            "replica"; "applied epoch"; "epochs behind"; "bytes behind";
            "batches"; "drops";
          ]
      in
      List.iter
        (fun x ->
          Util.Tablefmt.row tr
            [
              Util.Tablefmt.icell x.rr_replica;
              Util.Tablefmt.icell x.rr_applied_epoch;
              Util.Tablefmt.icell x.rr_epochs_behind;
              Util.Tablefmt.icell x.rr_bytes_behind;
              Util.Tablefmt.icell x.rr_batches;
              Util.Tablefmt.icell x.rr_drops;
            ])
        r.r_repl;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Util.Tablefmt.to_string tr)
    end;
    Buffer.contents buf

  let pairs_json conv xs =
    Json.List (List.map (fun (a, b) -> Json.List [ conv a; Json.Num (float_of_int b) ]) xs)

  let int_pairs = pairs_json (fun i -> Json.Num (float_of_int i))
  let str_pairs = pairs_json (fun s -> Json.Str s)

  let to_json r =
    let repl_field =
      (* additive: omitted entirely when no replicas were attached, so
         replica-free reports are byte-identical to pre-replication ones *)
      if r.r_repl = [] then []
      else
        [
          ( "replication",
            Json.List
              (List.map
                 (fun x ->
                   Json.Obj
                     [
                       ("replica", Json.Num (float_of_int x.rr_replica));
                       ( "applied_epoch",
                         Json.Num (float_of_int x.rr_applied_epoch) );
                       ( "epochs_behind",
                         Json.Num (float_of_int x.rr_epochs_behind) );
                       ( "bytes_behind",
                         Json.Num (float_of_int x.rr_bytes_behind) );
                       ("batches", Json.Num (float_of_int x.rr_batches));
                       ("drops", Json.Num (float_of_int x.rr_drops));
                     ])
                 r.r_repl) );
        ]
    in
    Json.Obj
      ([
        ("schema_version", Json.Num (float_of_int schema_version));
        ("clock", Json.Str r.r_clock);
        ("attempts", Json.Num (float_of_int r.r_attempts));
        ("commits", Json.Num (float_of_int r.r_commits));
        ("readonly_commits", Json.Num (float_of_int r.r_ro_commits));
        ("aborts", Json.Num (float_of_int r.r_aborts));
        ("retries", Json.Num (float_of_int r.r_retries));
        ("mean_latency_us", Json.Num r.r_mean_latency_us);
        ("lat_p50_us", Json.Num r.r_lat_p50_us);
        ("lat_p95_us", Json.Num r.r_lat_p95_us);
        ("lat_p99_us", Json.Num r.r_lat_p99_us);
        ("max_phase_sum_dev_pct", Json.Num r.r_max_sum_dev_pct);
        ( "phases",
          Json.List
            (List.map
               (fun p ->
                 Json.Obj
                   [
                     ("phase", Json.Str p.pr_phase);
                     ("count", Json.Num (float_of_int p.pr_count));
                     ("sum_us", Json.Num p.pr_sum_us);
                     ("mean_us", Json.Num p.pr_mean_us);
                     ("p50_us", Json.Num p.pr_p50_us);
                     ("p95_us", Json.Num p.pr_p95_us);
                     ("p99_us", Json.Num p.pr_p99_us);
                     ("share_pct", Json.Num p.pr_share_pct);
                     ("hist", int_pairs p.pr_hist);
                   ])
               r.r_phases) );
        ("aborts_by_kind", str_pairs r.r_aborts_by_kind);
        ("participants", int_pairs r.r_participants);
        ("retry_hist", int_pairs r.r_retry_hist);
        ( "scheduler",
          Json.List
            (List.map
               (fun s ->
                 Json.Obj
                   [
                     ("container", Json.Num (float_of_int s.sr_container));
                     ( "routed_by_cost",
                       Json.Num (float_of_int s.sr_routed_by_cost) );
                     ("qdepth_ewma", Json.Num s.sr_qdepth_ewma);
                   ])
               r.r_sched) );
      ]
      @ repl_field)

  let ( let* ) o f = match o with Some x -> f x | None -> Error "bad field"

  let get_f j k = Json.member k j |> Option.map (fun v -> Json.to_float v) |> Option.join
  let get_i j k = Json.member k j |> Option.map (fun v -> Json.to_int v) |> Option.join
  let get_s j k = Json.member k j |> Option.map (fun v -> Json.to_str v) |> Option.join
  let get_l j k = Json.member k j |> Option.map (fun v -> Json.to_list v) |> Option.join

  let parse_pairs conv xs =
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | Json.List [ a; b ] :: tl -> (
        match (conv a, Json.to_int b) with
        | Some a, Some b -> go ((a, b) :: acc) tl
        | _ -> None)
      | _ -> None
    in
    go [] xs

  let of_json j =
    match get_i j "schema_version" with
    | None -> Error "missing schema_version"
    | Some v when v < min_readable_version || v > schema_version ->
      Error
        (Printf.sprintf "unsupported schema_version %d (want %d..%d)" v
           min_readable_version schema_version)
    | Some _ ->
      let parse_phase pj =
        let* phase = get_s pj "phase" in
        let* count = get_i pj "count" in
        let* sum = get_f pj "sum_us" in
        let* mean = get_f pj "mean_us" in
        let* p50 = get_f pj "p50_us" in
        let* p95 = get_f pj "p95_us" in
        let* p99 = get_f pj "p99_us" in
        let* share = get_f pj "share_pct" in
        let* hist = get_l pj "hist" in
        let* hist = parse_pairs Json.to_int hist in
        Ok
          {
            pr_phase = phase;
            pr_count = count;
            pr_sum_us = sum;
            pr_mean_us = mean;
            pr_p50_us = p50;
            pr_p95_us = p95;
            pr_p99_us = p99;
            pr_share_pct = share;
            pr_hist = hist;
          }
      in
      let rec phases acc = function
        | [] -> Ok (List.rev acc)
        | pj :: tl -> (
          match parse_phase pj with
          | Ok p -> phases (p :: acc) tl
          | Error e -> Error e)
      in
      let* clock = get_s j "clock" in
      let* attempts = get_i j "attempts" in
      let* commits = get_i j "commits" in
      (* older reports predate snapshot reads: default to 0 *)
      let ro_commits = Option.value ~default:0 (get_i j "readonly_commits") in
      let* aborts = get_i j "aborts" in
      let* retries = get_i j "retries" in
      let* mean_lat = get_f j "mean_latency_us" in
      let* p50 = get_f j "lat_p50_us" in
      let* p95 = get_f j "lat_p95_us" in
      let* p99 = get_f j "lat_p99_us" in
      let* dev = get_f j "max_phase_sum_dev_pct" in
      let* phase_list = get_l j "phases" in
      let* ab = get_l j "aborts_by_kind" in
      let* ab = parse_pairs Json.to_str ab in
      let* parts = get_l j "participants" in
      let* parts = parse_pairs Json.to_int parts in
      let* rh = get_l j "retry_hist" in
      let* rh = parse_pairs Json.to_int rh in
      (* v2 reports have no "scheduler" field: default to no rows. *)
      let parse_sched sj =
        let* c = get_i sj "container" in
        let* rc = get_i sj "routed_by_cost" in
        let* q = get_f sj "qdepth_ewma" in
        Ok
          {
            sr_container = c;
            sr_routed_by_cost = rc;
            sr_qdepth_ewma = q;
          }
      in
      let rec scheds acc = function
        | [] -> Ok (List.rev acc)
        | sj :: tl -> (
          match parse_sched sj with
          | Ok s -> scheds (s :: acc) tl
          | Error e -> Error e)
      in
      let sched_result =
        match get_l j "scheduler" with
        | None -> Ok []
        | Some xs -> scheds [] xs
      in
      let parse_repl rj =
        let* r = get_i rj "replica" in
        let* ae = get_i rj "applied_epoch" in
        let* eb = get_i rj "epochs_behind" in
        let* bb = get_i rj "bytes_behind" in
        let* ba = get_i rj "batches" in
        let* dr = get_i rj "drops" in
        Ok
          {
            rr_replica = r;
            rr_applied_epoch = ae;
            rr_epochs_behind = eb;
            rr_bytes_behind = bb;
            rr_batches = ba;
            rr_drops = dr;
          }
      in
      let rec repls acc = function
        | [] -> Ok (List.rev acc)
        | rj :: tl -> (
          match parse_repl rj with
          | Ok r -> repls (r :: acc) tl
          | Error e -> Error e)
      in
      (* reports without replicas omit the field: default to no rows. *)
      let repl_result =
        match get_l j "replication" with
        | None -> Ok []
        | Some xs -> repls [] xs
      in
      (match (phases [] phase_list, sched_result, repl_result) with
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
      | Ok r_phases, Ok r_sched, Ok r_repl ->
        Ok
          {
            r_clock = clock;
            r_attempts = attempts;
            r_commits = commits;
            r_ro_commits = ro_commits;
            r_aborts = aborts;
            r_retries = retries;
            r_mean_latency_us = mean_lat;
            r_lat_p50_us = p50;
            r_lat_p95_us = p95;
            r_lat_p99_us = p99;
            r_max_sum_dev_pct = dev;
            r_phases;
            r_aborts_by_kind = ab;
            r_participants = parts;
            r_retry_hist = rh;
            r_sched;
            r_repl;
          })
end
