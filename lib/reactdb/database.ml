open Sim

type breakdown = {
  mutable bd_sync_exec : float;
  mutable bd_cs : float;
  mutable bd_cr : float;
  mutable bd_async_exec : float;
  mutable bd_overhead : float;
}

let zero_breakdown () =
  { bd_sync_exec = 0.; bd_cs = 0.; bd_cr = 0.; bd_async_exec = 0.;
    bd_overhead = 0. }

type outcome = {
  result : (Util.Value.t, string) result;
  latency : float;
  breakdown : breakdown;
  containers_touched : int;
  abort_cause : Obs.Abort.cause option;
  snapshot : int option;
      (* the frozen epoch this root read from, when it ran as a read-only
         snapshot transaction *)
}

type executor = {
  xid : int;
  cid : int;
  queue : (unit -> unit) Engine.Mailbox.mb;
  core_waiters : (unit -> unit) Queue.t;
  mutable core_busy : bool;
  mutable active_roots : int;
  mutable slot_waiter : (unit -> unit) option;
  mutable busy_accum : float;
  mutable held_since : float;
}

type container = { mutable rr : int; cexecutors : executor array }

type rstate = {
  re : Bootstrap.entry;
  mutable home : int;
      (* current placement; flipped atomically (in virtual time) by
         [migrate] — every router/dispatch decision re-reads it *)
  mutable cache_recency : int list;
      (* executors that recently touched this reactor's data, most recent
         first; drives a graded cache-miss penalty (warmest = free, colder
         positions pay proportionally, absent = full penalty) *)
}

(* One in-progress migration: roots (and sub-calls of roots) admitted after
   the mark — generation strictly greater than [mg_cutoff] — park here and
   resume once the placement flips. *)
type mig = { mg_cutoff : int; mutable mg_parked : (unit -> unit) list }

type hist_entry = {
  h_txn : int;
  h_tid : int;
  h_reads : (int * int) list;
  h_writes : int list;
}

type t = {
  eng : Engine.t;
  decl : Reactor.decl;
  cfg : Config.t;
  prof : Profile.t;
  containers : container array;
  reactors : (string, rstate) Hashtbl.t;
  mutable txn_counter : int;
  ps : Protocol.state;
      (* counters, collector, injector and the fence (DESIGN.md §12.4) *)
  mutable record_history : bool;
  mutable hist : hist_entry list;
  mutable stats_since : float;
  table_owner : (int, string * string) Hashtbl.t;
      (* table uid -> (reactor, table name), for redo logging *)
  mutable wal : Wal.t option;
  mutable durable : bool;
      (* epoch group commit: release a committed result to the client only
         once the log records of its epoch are flushed (Silo's epoch
         durability) *)
  mutable flushed_epoch : int;
  mutable flush_pending : bool;
  mutable epoch_waiters : (int * (unit -> unit)) list;
  mutable n_flushes : int;
  mutable wal_error : string option;
      (* first WAL device failure seen by the group-commit flusher; the
         run continues with durability degraded rather than crashing *)
  mutable mailbox_cap : int option;
      (* root admission bound per executor request queue; [None] =
         unbounded (sheds surface as [Obs.Abort.Overloaded] outcomes) *)
  mutable snapshots_enabled : bool;
      (* when set, installs publish version chains and declared-read-only
         procedures run against a frozen snapshot epoch; off = the
         single-version OCC-everywhere behavior (benchmark baseline) *)
  snap_live : (int, int) Hashtbl.t;
      (* live snapshot readers per snapshot epoch; the GC horizon is the
         minimum live epoch *)
  rorder : string list;
      (* reactor declaration order, for deterministic [placements] *)
  (* -- live reconfiguration (DESIGN.md §11) ----------------------------
     Mirrors the parallel runtime's protocol, collapsed to the engine's
     single thread: a migration marks the reactor (bumping [mig_gen]),
     drains every root of the pre-mark generation, logs a [Wal.Migrate]
     record, flips [rstate.home] and replays the parked stub traffic.
     The two-slot parity counters suffice because [mig_busy] serializes
     migrations, so at most two generations are ever live. *)
  mutable mig_gen : int;
  mig_inflight : int array; (* length 2, indexed by generation parity *)
  mutable mig_drain : (int * (unit -> unit)) option;
      (* (parity, waker): the migrating coroutine waiting for that
         generation slot to empty *)
  migrating : (string, mig) Hashtbl.t;
  mutable mig_busy : bool;
  mutable mig_waiters : (unit -> unit) list;
  mutable placement_epoch : int;
  mutable n_migrations : int;
  mutable mig_pause_last : float;
}

let engine t = t.eng
let config t = t.cfg
let profile t = t.prof

(* ------------------------------------------------------------------ *)
(* Core (CPU) ownership: one coroutine runs on an executor at a time.
   Blocking operations release the core; release transfers ownership to the
   longest-waiting coroutine, keeping the core busy without gaps. *)

let acquire_core ex =
  if ex.core_busy then
    Engine.suspend (fun waker -> Queue.add waker ex.core_waiters);
  ex.core_busy <- true;
  ex.held_since <- Engine.current_time ()

let release_core ex =
  ex.busy_accum <- ex.busy_accum +. (Engine.current_time () -. ex.held_since);
  if Queue.is_empty ex.core_waiters then ex.core_busy <- false
  else (Queue.take ex.core_waiters) ()

(* ------------------------------------------------------------------ *)
(* Simulator-side root state: the cost breakdown, the call bookkeeping that
   classifies a blocked window as sync or async execution, which executor
   ran the root in each container (its 2PC participants) and the epoch of
   its redo record. *)

type rext = {
  bd : breakdown;
  mutable exec_of_container : (int * executor) list;
  mutable last_call : int;
  mutable call_ctr : int;
  mutable worked_since_call : bool;
  mutable logged_epoch : int option;
      (* epoch of this root's redo record, once appended to the WAL *)
}

(* One invocation's cost state: its root, whether it is on the root's
   critical path, and its cache-miss penalty fraction. *)
type fext = { fx_root : rext; fx_path : bool; fx_penalty : float }

let reactor_state db name =
  match Hashtbl.find_opt db.reactors name with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "ReactDB: unknown reactor %S" name)

let route db rst =
  let cont = db.containers.(rst.home) in
  let n = Array.length cont.cexecutors in
  match db.cfg.router with
  | Config.Round_robin ->
    cont.rr <- cont.rr + 1;
    cont.cexecutors.((cont.rr - 1) mod n)
  | Config.Affinity | Config.Cost ->
    (* Cost routing reacts to live queue depths, which virtual-time
       executors don't expose; the simulator degrades it to affinity. *)
    cont.cexecutors.(db.cfg.affinity_slot rst.re.Bootstrap.bs_name mod n)

(* ------------------------------------------------------------------ *)
(* Live-reconfiguration gates (DESIGN.md §11). [mig_register] pins a root
   into the current migration generation for its whole lifetime;
   [mig_retire] drops the pin and fires the drain waker when the slot a
   migration is waiting on empties. [mig_stub_park] suspends the calling
   coroutine at a migrating reactor's forwarding stub; it resumes after the
   placement flip, so the caller's next read of [rst.home] sees the new
   container. Single-threaded engine: no atomicity concerns, the counters
   are plain ints. *)

let mig_register db =
  let g = db.mig_gen in
  db.mig_inflight.(g land 1) <- db.mig_inflight.(g land 1) + 1;
  g

let mig_retire db g =
  let p = g land 1 in
  db.mig_inflight.(p) <- db.mig_inflight.(p) - 1;
  match db.mig_drain with
  | Some (dp, w) when dp = p && db.mig_inflight.(p) = 0 ->
    db.mig_drain <- None;
    w ()
  | _ -> ()

let mig_stub_park m =
  Engine.suspend (fun waker -> m.mg_parked <- waker :: m.mg_parked)

(* Silo epoch length in virtual µs: TID epochs advance on this boundary,
   and so does the durable-mode group-commit flush. *)
let epoch_len_us = 40_000.

let current_epoch db = 1 + int_of_float (Engine.now db.eng /. epoch_len_us)

(* ------------------------------------------------------------------ *)
(* Snapshot epochs. A read-only root freezes at S = current epoch - 1:
   every commit of epoch <= S finished at an earlier virtual instant
   (commits are atomic events and the TID epoch only advances at the
   boundary), so epoch S is a fully committed, immutable prefix. Versions
   older than the minimum live snapshot epoch (or, with no readers, older
   than the next S to be issued) can never be requested again — that
   minimum is the GC horizon installs trim chains to. *)

let safe_snapshot_epoch db = Stdlib.max 0 (current_epoch db - 1)

let acquire_snapshot db =
  let s = safe_snapshot_epoch db in
  Hashtbl.replace db.snap_live s
    (1 + Option.value ~default:0 (Hashtbl.find_opt db.snap_live s));
  s

let release_snapshot db s =
  match Hashtbl.find_opt db.snap_live s with
  | Some n when n > 1 -> Hashtbl.replace db.snap_live s (n - 1)
  | Some _ -> Hashtbl.remove db.snap_live s
  | None -> ()

let gc_horizon db =
  Hashtbl.fold (fun e _ acc -> Stdlib.min e acc) db.snap_live
    (safe_snapshot_epoch db)

let install_horizon db =
  if db.snapshots_enabled then Some (gc_horizon db) else None

(* Extra one-way cost when two containers live on different machines. *)
let net db c1 c2 =
  if db.cfg.Config.machine_of c1 = db.cfg.Config.machine_of c2 then 0.
  else db.prof.Profile.cost_network

(* Charge [d] µs of processing on the current coroutine's core; attribute to
   the root's sync-execution bucket when on the root's critical path. *)
let work fx d =
  if d > 0. then Engine.delay d;
  if fx.fx_path then begin
    fx.fx_root.bd.bd_sync_exec <- fx.fx_root.bd.bd_sync_exec +. d;
    fx.fx_root.worked_since_call <- true
  end

(* Graded cache model: how cold is executor [xid] for this reactor's data?
   Position 0 in the recency list is free; deeper positions pay a growing
   fraction of the full miss penalty; executors not in the list pay it all.
   This reproduces the progressive locality loss the paper measures when
   round-robin routing spreads one reactor over more cores (App. F.2). *)
let recency_depth = 8

let cache_penalty rstate xid =
  let rec find i = function
    | [] -> 1.
    | x :: _ when x = xid -> float_of_int i /. float_of_int recency_depth
    | _ :: rest -> find (i + 1) rest
  in
  find 0 rstate.cache_recency

let touch_cache rstate xid =
  let rest = List.filter (fun x -> x <> xid) rstate.cache_recency in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: r -> x :: take (n - 1) r
  in
  rstate.cache_recency <- xid :: take (recency_depth - 1) rest

let charge_data db fx kind n =
  let p = db.prof in
  let base =
    match kind with
    | `Read -> p.Profile.cost_read
    | `Write -> p.Profile.cost_write
    | `Scan_step -> p.Profile.cost_scan_step
  in
  let per = base +. (fx.fx_penalty *. p.Profile.cost_cache_miss) in
  work fx (per *. float_of_int n)

let set_exec_of rx cid ex =
  if not (List.mem_assoc cid rx.exec_of_container) then
    rx.exec_of_container <- (cid, ex) :: rx.exec_of_container

(* ------------------------------------------------------------------ *)
(* Commit costs, the write-ahead redo record and history. *)

let validation_cost db txn c =
  db.prof.Profile.cost_commit_base
  +. db.prof.Profile.cost_commit_per_op
     *. float_of_int (Occ.Txn.ops_in txn ~container:c)

(* Append the redo record write-ahead of install; a [Wal.Io_error] becomes
   a commit error (locks still held, so the release path runs). *)
let wal_log db rx txn ~tid =
  match db.wal with
  | None -> Ok ()
  | Some log -> (
    match Protocol.redo_writes db.table_owner txn with
    | [] -> Ok ()
    | writes -> (
      try
        Wal.append log
          { Wal.le_txn = Occ.Txn.id txn; le_tid = tid; le_writes = writes };
        rx.logged_epoch <- Some (Storage.Record.tid_epoch tid);
        Ok ()
      with Wal.Io_error m -> Error m))

let note_history db txn tid =
  if db.record_history && Occ.Txn.containers txn <> [] then begin
    let reads =
      List.concat_map
        (fun c ->
          List.map
            (fun (r, observed) -> (r.Storage.Record.rid, observed))
            (Occ.Txn.reads_in txn ~container:c))
        (Occ.Txn.containers txn)
    in
    let writes = ref [] in
    Occ.Txn.iter_all_writes txn ~f:(fun e ->
        writes := e.Occ.Txn.wrec.Storage.Record.rid :: !writes);
    let writes = List.rev !writes in
    db.hist <-
      { h_txn = Occ.Txn.id txn; h_tid = tid; h_reads = reads;
        h_writes = writes }
      :: db.hist
  end

(* ------------------------------------------------------------------ *)
(* Epoch group commit (durable mode, Silo's epoch durability). A one-shot
   flusher is scheduled on demand at the next epoch boundary; it flushes the
   WAL, advances [flushed_epoch] past the epoch that just closed, and
   releases every waiter whose record epoch is covered. Scheduling on demand
   (rather than as a periodic process) lets [Engine.run] drain once no
   transaction is waiting on durability.

   Safety: a redo record appended strictly before boundary time
   [epoch_len_us * e] carries TID epoch <= e (the epoch can only advance at
   the boundary), so after flushing at that instant every record of epoch
   <= e is on stable storage. *)
let rec schedule_flush db =
  if not db.flush_pending then begin
    db.flush_pending <- true;
    let boundary_epoch = current_epoch db in
    let at = epoch_len_us *. float_of_int boundary_epoch in
    Engine.spawn db.eng ~at (fun () ->
        (* Chaos: the group-commit flush stalls (device hiccup), delaying
           every transaction waiting on epoch durability. [flush_pending]
           stays true across the stall, so no second flusher starts. *)
        (match Chaos.draw_us db.ps.Protocol.chaos Chaos.Stall_flush with
        | Some d -> Engine.delay d
        | None -> ());
        db.flush_pending <- false;
        (* A failing log device must not kill the run (the flusher runs
           outside any transaction): record the failure, keep releasing
           waiters — durability is degraded, not liveness. *)
        (match db.wal with
        | Some log -> (
          try Wal.flush log
          with Wal.Io_error m ->
            if db.wal_error = None then db.wal_error <- Some m)
        | None -> ());
        db.n_flushes <- db.n_flushes + 1;
        db.flushed_epoch <- Stdlib.max db.flushed_epoch boundary_epoch;
        let ready, waiting =
          List.partition (fun (e, _) -> e <= db.flushed_epoch) db.epoch_waiters
        in
        db.epoch_waiters <- waiting;
        List.iter (fun (_, w) -> w ()) ready;
        (* Waiters from a later epoch (committed just past the boundary)
           need the next flush. *)
        if waiting <> [] then schedule_flush db)
  end

(* Client-side durable wait: called after the transaction's executor slot is
   released, so group commit adds commit latency but never holds admission
   capacity. Transactions that logged nothing return immediately. *)
let wait_durable db rx =
  match rx.logged_epoch with
  | None -> ()
  | Some e ->
    if db.durable && e > db.flushed_epoch then begin
      schedule_flush db;
      Engine.suspend (fun waker ->
          db.epoch_waiters <- (e, waker) :: db.epoch_waiters)
    end

(* ------------------------------------------------------------------ *)
(* The protocol over virtual-time cores (DESIGN.md §5.3). Costs are
   [Profile] delays; a blocked coroutine releases its core and pays Cr on
   wake; the breakdown classifies each blocked window as sync execution
   (an immediate get with no intervening work) or async execution (an
   overlap window). *)

module P = Protocol.Make (struct
  type nonrec t = t
  type exec = executor
  type place = rstate
  type nonrec rext = rext
  type nonrec fext = fext
  type pending = unit
  type 'a ivar = 'a Engine.Ivar.ivar

  let state db = db.ps
  let now = Engine.current_time
  let timed _ = true
  let container ex = ex.cid
  let place = reactor_state
  let entry rst = rst.re

  (* Migration stub: a post-mark root parks until the flip. The caller's
     core is released across the park — a parked post-mark root must never
     hold a core a draining pre-mark root may need. Pre-mark roots pass
     through: the drain waits for them. *)
  let gate db _ ex ~rgen rst =
    (match Hashtbl.find_opt db.migrating rst.re.Bootstrap.bs_name with
    | Some m when rgen > m.mg_cutoff ->
      release_core ex;
      mig_stub_park m;
      acquire_core ex
    | _ -> ());
    rst.home

  let sub_exec db rx rst =
    let rex = route db rst in
    set_exec_of rx rst.home rex;
    rex

  (* The executor that ran the root's sub-transactions in [c], so commit
     steps find its data warm. *)
  let participant db rx c =
    match List.assoc_opt c rx.exec_of_container with
    | Some e -> e
    | None -> db.containers.(c).cexecutors.(0)

  let spawn ex f =
    let iv = Engine.Ivar.create () in
    Engine.spawn_here (fun () ->
        acquire_core ex;
        let r = f () in
        release_core ex;
        Engine.Ivar.fill iv r);
    iv

  let peek = Engine.Ivar.peek

  let await ex iv =
    release_core ex;
    let r = Engine.Ivar.read iv in
    acquire_core ex;
    r

  let enter _ = ()
  let leave _ = ()

  let charge db cost =
    let p = db.prof in
    Engine.delay
      (match cost with
      | Protocol.Arrive (src, dst) ->
        (* the result message back to the caller also crosses the network *)
        p.Profile.cost_sub_dispatch +. net db src dst
      | Protocol.Commit_msg (src, dst) -> p.Profile.cost_2pc_msg +. net db src dst
      | Protocol.Commit_step -> p.Profile.cost_sub_dispatch
      | Protocol.Validate (txn, c) -> validation_cost db txn c
      | Protocol.Install -> p.Profile.cost_commit_base)

  let frame_enter db rx rst ~home ex ~on_root_path =
    let fx =
      { fx_root = rx; fx_path = on_root_path;
        fx_penalty = cache_penalty rst ex.xid }
    in
    set_exec_of rx home ex;
    work fx db.prof.Profile.cost_proc_base;
    { Protocol.fx;
      charge_data = (fun kind n -> charge_data db fx kind n);
      charge_work = (fun us -> work fx us);
      exit = (fun () -> touch_cache rst ex.xid) }

  let send db fx ~src rst =
    let rx = fx.fx_root in
    rx.call_ctr <- rx.call_ctr + 1;
    let send_cost = db.prof.Profile.cost_send +. net db src rst.home in
    Engine.delay send_cost;
    if fx.fx_path then begin
      rx.bd.bd_cs <- rx.bd.bd_cs +. send_cost;
      rx.last_call <- rx.call_ctr;
      rx.worked_since_call <- false
    end;
    rx.call_ctr

  let resumed db fx ~sfid ~blocked =
    let cr = db.prof.Profile.cost_recv in
    Engine.delay cr;
    if fx.fx_path then begin
      let rx = fx.fx_root in
      let bd = rx.bd in
      bd.bd_cr <- bd.bd_cr +. cr;
      if rx.last_call = sfid && not rx.worked_since_call then
        bd.bd_sync_exec <- bd.bd_sync_exec +. blocked
      else bd.bd_async_exec <- bd.bd_async_exec +. blocked;
      rx.worked_since_call <- true
    end

  let stall db kind =
    match Chaos.draw_us db.ps.Protocol.chaos kind with
    | Some d -> Engine.delay d
    | None -> ()

  (* Programming errors (not aborts) escape to the engine. *)
  let fatal _ e = raise e
  let horizon = install_horizon
  let commit_begin db _ = (current_epoch db, ())
  let log_ahead = wal_log

  let commit_end db txn ~epoch:_ () ~tid =
    Option.iter (note_history db txn) tid;
    None
end)

let exec_txn ?(retry = 0) ?deadline_us db ~reactor ~proc ~args =
  let p = db.prof in
  let t_start = Engine.current_time () in
  let deadline =
    match deadline_us with
    | Some d -> t_start +. d
    | None -> Float.infinity
  in
  Engine.delay p.Profile.cost_input_gen;
  db.txn_counter <- db.txn_counter + 1;
  let txn = Occ.Txn.create ~id:db.txn_counter in
  let rst = reactor_state db reactor in
  (* Live reconfiguration: register in the current migration generation,
     and park at the forwarding stub when the target is mid-migration —
     the root resumes (and routes) against the post-flip placement. The
     client coroutine holds no core here, so parking cannot starve the
     drain. Virtual time keeps running while parked: the pause shows up in
     latency, and a tight deadline can expire at the dequeue boundary —
     exactly the straggler backstop the deadline machinery provides. *)
  let rgen = mig_register db in
  (match Hashtbl.find_opt db.migrating reactor with
  | Some m when rgen > m.mg_cutoff -> mig_stub_park m
  | _ -> ());
  (* Declared-read-only roots freeze a snapshot epoch up front: the body
     reads version chains at that epoch and the commit protocol is skipped
     entirely (no read set, no locks, no validation, no 2PC). *)
  let rsnapshot =
    if db.snapshots_enabled && Reactor.proc_readonly rst.re.Bootstrap.bs_rtype proc
    then Some (acquire_snapshot db)
    else None
  in
  let bd = zero_breakdown () in
  let rx =
    { bd; exec_of_container = []; last_call = 0; call_ctr = 0;
      worked_since_call = false; logged_epoch = None }
  in
  let root = P.make_root db ~txn ~rgen ~rsnapshot ~deadline rx in
  let ex = route db rst in
  Engine.delay p.Profile.cost_client_dispatch;
  let done_iv = Engine.Ivar.create () in
  let t_enq = ref 0. in
  let body () =
    acquire_core ex;
    let out =
      P.execute db root ~place:rst ~home:rst.home ~ex ~reactor ~proc ~args
        ~t_enq:!t_enq
    in
    release_core ex;
    Engine.Ivar.fill done_iv out
  in
  (* Admission control: a fenced primary refuses every root outright, and
     with a mailbox cap set, a root arriving at a full request queue is
     shed — it never occupies a queue slot, an MPL slot or a core.
     Sub-transactions and commit traffic of admitted roots are never
     shed. *)
  let shed =
    match db.mailbox_cap with
    | Some cap -> Engine.Mailbox.length ex.queue >= cap
    | None -> false
  in
  let out =
    if Protocol.refuse_fenced db.ps then Protocol.fenced_refusal
    else if shed then Protocol.overloaded
    else begin
      t_enq := Engine.current_time ();
      Engine.Mailbox.push ex.queue body;
      Engine.Ivar.read done_iv
    end
  in
  (* The root can no longer touch any reactor (install/release are done;
     what remains is client-side flush wait), so its generation pin drops —
     an in-progress migration drain resumes once the pre-mark slot empties.
     The shed path retires too: it registered above. *)
  mig_retire db rgen;
  (* The snapshot's GC pin is dropped as soon as the outcome is known —
     including on the admission-shed path, where the body never ran. *)
  Option.iter (release_snapshot db) rsnapshot;
  (* Durable mode: hold the client until the flush covering this
     transaction's log epoch completes (the executor slot is already free,
     so group commit costs latency, not admission capacity). *)
  let result = Protocol.result_of out in
  (match result with
  | Ok _ ->
    let t_flush = Engine.current_time () in
    wait_durable db rx;
    Obs.Trace.add (P.trace root) Obs.Phase.Flush_wait (Engine.current_time () -. t_flush)
  | Error _ -> ());
  let latency = Engine.current_time () -. t_start in
  (* Overhead bucket = everything not attributed to the execution-path
     buckets: input generation, dispatch, commit, queueing. *)
  bd.bd_overhead <-
    Float.max 0.
      (latency -. bd.bd_sync_exec -. bd.bd_cs -. bd.bd_cr -. bd.bd_async_exec);
  let containers_touched = List.length (Occ.Txn.containers txn) in
  let abort_cause =
    Protocol.settle db.ps ~slot:rst.home
      ~participants:(Stdlib.max 1 containers_touched) ~retry
      ~readonly:(rsnapshot <> None) ~latency_us:latency (P.trace root) out
  in
  { result; latency; breakdown = bd;
    containers_touched; abort_cause; snapshot = rsnapshot }

(* ------------------------------------------------------------------ *)
(* Live reconfiguration (DESIGN.md §11): online reactor migration.

   mark    — bump the generation and install the forwarding stub: every
             root (or sub-call of a root) admitted after this instant that
             targets [reactor] suspends at the stub.
   drain   — wait until every pre-mark root in the whole database has
             completed. Global drain is deliberately conservative: any
             in-flight root might still issue a sub-call into [reactor],
             and pre-mark sub-calls pass the stub (the alternative —
             per-reactor tracking — buys little under the engine's
             cooperative scheduling). The PR 5 deadline machinery is the
             straggler backstop.
   log     — append a [Wal.Migrate] record (write-ahead of the flip), so
             crash recovery replays placement deterministically
             (Faultsim.rc_placements folds these in TID order).
   flip    — re-home the reactor: one mutable-field write, atomic in
             virtual time. Catalogs are shared-heap structures keyed by
             reactor, not by container, so the storage slice (records,
             secondary indexes, snapshot version chains) moves with the
             pointer; snapshot readers keep reading the same chains.
   replay  — wake the parked stub traffic; each parked coroutine re-reads
             [rstate.home] and dispatches to the new container.

   Returns the migration pause in virtual µs (mark → flip). Migrations are
   serialized on [mig_busy]; concurrent callers queue. *)

let migrate db ~reactor ~dst =
  if dst < 0 || dst >= Array.length db.containers then
    invalid_arg
      (Printf.sprintf "ReactDB: migrate %s: no container %d" reactor dst);
  let rst = reactor_state db reactor in
  let rec admit () =
    if db.mig_busy then begin
      Engine.suspend (fun w -> db.mig_waiters <- w :: db.mig_waiters);
      admit ()
    end
  in
  admit ();
  if rst.home = dst then 0.
  else begin
    db.mig_busy <- true;
    let t0 = Engine.current_time () in
    (* mark *)
    let cutoff = db.mig_gen in
    db.mig_gen <- db.mig_gen + 1;
    let m = { mg_cutoff = cutoff; mg_parked = [] } in
    Hashtbl.replace db.migrating reactor m;
    (* drain: pre-mark roots all live in the [cutoff] parity slot (at most
       two generations are ever live, see the type definition) *)
    if db.mig_inflight.(cutoff land 1) > 0 then
      Engine.suspend (fun w -> db.mig_drain <- Some (cutoff land 1, w));
    (* log (write-ahead of the flip); a failing log device degrades
       durability of the placement record, never liveness — recovery would
       boot with the pre-move placement, which is merely slower *)
    db.n_migrations <- db.n_migrations + 1;
    (match db.wal with
    | None -> ()
    | Some log -> (
      let tid =
        Storage.Record.tid_make ~epoch:(current_epoch db)
          ~seq:db.n_migrations
      in
      try
        Wal.append log
          { Wal.le_txn = -db.n_migrations; le_tid = tid;
            le_writes = [ Wal.Migrate { reactor; dst } ] }
      with Wal.Io_error e ->
        if db.wal_error = None then db.wal_error <- Some e));
    (* flip *)
    rst.home <- dst;
    db.placement_epoch <- db.placement_epoch + 1;
    Hashtbl.remove db.migrating reactor;
    (* replay *)
    List.iter (fun w -> w ()) (List.rev m.mg_parked);
    let pause = Engine.current_time () -. t0 in
    db.mig_pause_last <- pause;
    db.mig_busy <- false;
    let ws = db.mig_waiters in
    db.mig_waiters <- [];
    List.iter (fun w -> w ()) (List.rev ws);
    pause
  end

(* ------------------------------------------------------------------ *)
(* Bootstrap. *)

let rec dispatcher db ex () =
  let body = Engine.Mailbox.pop ex.queue in
  if ex.active_roots >= db.cfg.Config.mpl then
    Engine.suspend (fun waker -> ex.slot_waiter <- Some waker);
  ex.active_roots <- ex.active_roots + 1;
  Engine.spawn_here (fun () ->
      body ();
      ex.active_roots <- ex.active_roots - 1;
      match ex.slot_waiter with
      | Some w ->
        ex.slot_waiter <- None;
        w ()
      | None -> ());
  dispatcher db ex ()

let create eng decl cfg prof =
  (* Declaration/config materialization is shared with the parallel runtime
     backend: same validation, same catalogs, same placement checks. *)
  let entries, table_owner = Bootstrap.build decl cfg in
  let xid = ref 0 in
  let containers =
    Array.map
      (fun nexec ->
        let cexecutors =
          Array.init nexec (fun _ ->
              incr xid;
              {
                xid = !xid;
                cid = 0 (* fixed below *);
                queue = Engine.Mailbox.create ();
                core_waiters = Queue.create ();
                core_busy = false;
                active_roots = 0;
                slot_waiter = None;
                busy_accum = 0.;
                held_since = 0.;
              })
        in
        { rr = 0; cexecutors })
      cfg.Config.executors_per_container
  in
  Array.iteri
    (fun ci cont ->
      Array.iteri
        (fun i ex -> cont.cexecutors.(i) <- { ex with cid = ci })
        cont.cexecutors)
    containers;
  let db =
    {
      eng;
      decl;
      cfg;
      prof;
      containers;
      reactors = Hashtbl.create 256;
      txn_counter = 0;
      ps = Protocol.make_state Chaos.none;
      record_history = false;
      hist = [];
      stats_since = Engine.now eng;
      table_owner;
      wal = None;
      durable = false;
      flushed_epoch = 0;
      flush_pending = false;
      epoch_waiters = [];
      n_flushes = 0;
      wal_error = None;
      mailbox_cap = None;
      snapshots_enabled = true;
      snap_live = Hashtbl.create 16;
      rorder = List.map (fun e -> e.Bootstrap.bs_name) entries;
      mig_gen = 0;
      mig_inflight = [| 0; 0 |];
      mig_drain = None;
      migrating = Hashtbl.create 4;
      mig_busy = false;
      mig_waiters = [];
      placement_epoch = 0;
      n_migrations = 0;
      mig_pause_last = 0.;
    }
  in
  List.iter
    (fun e ->
      Hashtbl.add db.reactors e.Bootstrap.bs_name
        { re = e; home = e.Bootstrap.bs_home; cache_recency = [] })
    entries;
  Array.iter
    (fun cont ->
      Array.iter (fun ex -> Engine.spawn eng (dispatcher db ex)) cont.cexecutors)
    containers;
  db

let catalog_of db name = (reactor_state db name).re.Bootstrap.bs_catalog
let container_of db name = (reactor_state db name).home
let n_migrations db = db.n_migrations
let placement_epoch db = db.placement_epoch
let migration_pause_last_us db = db.mig_pause_last

let placements db =
  List.map (fun n -> (n, (reactor_state db n).home)) db.rorder

(* Bootstrap-time only: re-home reactors silently (no drain, no WAL record,
   no stub) to resume a recovered deployment (Faultsim.rc_placements).
   Calling this with traffic in flight would route around the migration
   protocol — don't. *)
let apply_placements db pl =
  List.iter
    (fun (r, dst) ->
      match Hashtbl.find_opt db.reactors r with
      | Some rst when dst >= 0 && dst < Array.length db.containers ->
        rst.home <- dst
      | Some _ | None -> ())
    pl
let n_committed db = Atomic.get db.ps.Protocol.committed
let n_aborted db = Atomic.get db.ps.Protocol.aborted
let aborts_by_reason db = Protocol.aborts_by_reason db.ps

let utilizations db =
  let total = Float.max 1e-9 (Engine.now db.eng -. db.stats_since) in
  let out = ref [] in
  Array.iter
    (fun cont ->
      Array.iter
        (fun ex ->
          let busy =
            ex.busy_accum
            +. (if ex.core_busy then Engine.now db.eng -. ex.held_since else 0.)
          in
          out := (busy /. total) :: !out)
        cont.cexecutors)
    db.containers;
  Array.of_list (List.rev !out)

let reset_stats db =
  Protocol.reset_counts db.ps;
  db.n_flushes <- 0;
  (* The history log is NOT cleared: serializability certification needs
     every installed version, including warm-up transactions whose writes
     later transactions read. *)
  db.stats_since <- Engine.now db.eng;
  Array.iter
    (fun cont ->
      Array.iter
        (fun ex ->
          ex.busy_accum <- 0.;
          if ex.core_busy then ex.held_since <- Engine.now db.eng)
        cont.cexecutors)
    db.containers

let attach_wal ?(durable = false) db log =
  db.wal <- Some log;
  db.durable <- durable

let attach_obs db c = db.ps.Protocol.obs <- Some c
let attach_chaos db c = db.ps.Protocol.chaos <- c
let set_mailbox_cap db cap = db.mailbox_cap <- cap
let set_snapshots db b = db.snapshots_enabled <- b
let snapshots_enabled db = db.snapshots_enabled
let n_readonly_commits db = Atomic.get db.ps.Protocol.ro_commits
let wal_error db = db.wal_error
let n_log_flushes db = db.n_flushes
let enable_history db = db.record_history <- true

(* -- replication / failover (DESIGN.md §12) -------------------------- *)

(* Highest epoch whose redo records a group-commit flush has covered. In
   durable mode an acknowledged commit's epoch is always <= this (the
   client waited for the covering flush), so the durable log prefix up to
   this epoch contains every acknowledged transaction — the salvage bound
   promotion uses after a primary crash. *)
let durable_epoch db = db.flushed_epoch

let generation db = Atomic.get db.ps.Protocol.generation
let set_generation db g = Atomic.set db.ps.Protocol.generation g
let fence db = Atomic.set db.ps.Protocol.fenced true
let fenced db = Atomic.get db.ps.Protocol.fenced
let n_fenced_refusals db = Atomic.get db.ps.Protocol.n_fenced
let history db = List.rev db.hist
