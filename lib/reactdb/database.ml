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
  rname : string;
  rtype : Reactor.rtype;
  rcatalog : Storage.Catalog.t;
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
  mutable committed : int;
  mutable aborted : int;
  abort_reasons : (string, int) Hashtbl.t;
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
  mutable obs : Obs.Collector.t option;
  mutable chaos : Chaos.t;
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
  mutable n_ro_commits : int;
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
  (* -- replication / failover (DESIGN.md §12) --------------------------
     Generation-stamped admission, mirroring the migration drain's
     [mig_gen] pattern at the whole-primary scale: a primary serves at
     generation [prim_gen]; once [fenced] (a newer generation was
     promoted, or the Kill_primary chaos probe fired), every admission is
     refused with a typed error and an in-flight 2PC may no longer
     install. *)
  mutable prim_gen : int;
  mutable fenced : bool;
  mutable n_fenced : int; (* admissions refused while fenced *)
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
(* Root transaction state, shared by all its (sub-)transactions. *)

type subresult = (Util.Value.t, exn) result

type sub = { sfid : int; siv : subresult Engine.Ivar.ivar }

(* Typed abort classification, replacing substring matching on messages: a
   user abort whose text happens to contain "duplicate key" must still be
   counted as a user abort. [Ab_validation] is commit-time (OCC validation
   or 2PC prepare failure); [Ab_conflict] is an execution-time concurrency
   conflict (duplicate-key race) — both land in the "validation" bucket. *)
type abort_class =
  | Ab_user
  | Ab_conflict
  | Ab_validation
  | Ab_dangerous
  | Ab_timeout
  | Ab_overload
  | Ab_internal

let classify_exn = function
  | Occ.Txn.Abort m -> Some (Ab_user, m)
  | Occ.Txn.Conflict m -> Some (Ab_conflict, m)
  | Reactor.Dangerous_call m -> Some (Ab_dangerous, m)
  | Obs.Abort.Timed_out m -> Some (Ab_timeout, m)
  | _ -> None

let bucket_of_class = function
  | Ab_user -> "user"
  | Ab_conflict | Ab_validation -> "validation"
  | Ab_dangerous -> "dangerous-structure"
  | Ab_timeout -> "timeout"
  | Ab_overload -> "overloaded"
  | Ab_internal -> "internal"

let obs_kind_of_class = function
  | Ab_user -> Obs.Abort.User
  | Ab_conflict -> Obs.Abort.Conflict
  | Ab_validation -> Obs.Abort.Internal (* refined by fail_reason when known *)
  | Ab_dangerous -> Obs.Abort.Dangerous
  | Ab_timeout -> Obs.Abort.Timeout
  | Ab_overload -> Obs.Abort.Overloaded
  | Ab_internal -> Obs.Abort.Internal

let obs_kind_of_fail = function
  | Occ.Commit.Lock_busy -> Obs.Abort.Lock_busy
  | Occ.Commit.Stale_read -> Obs.Abort.Stale_read
  | Occ.Commit.Node_changed -> Obs.Abort.Node_changed
  | Occ.Commit.Key_exists -> Obs.Abort.Key_exists

type root = {
  txn : Occ.Txn.t;
  rgen : int;
      (* migration generation this root was admitted in; a sub-call it
         issues to a reactor marked with an older cutoff parks at the stub *)
  rsnapshot : int option;
      (* frozen snapshot epoch when this root runs read-only; propagates to
         every sub-call's query context, so cross-container fan-outs read
         the same consistent cut *)
  bd : breakdown;
  tr : Obs.Trace.t; (* lifecycle trace; Obs.Trace.none when no collector *)
  deadline : float;
      (* absolute virtual-time deadline; [infinity] when the root has no
         deadline, keeping every check one float compare *)
  active_set : (string, unit) Hashtbl.t;
  mutable exec_of_container : (int * executor) list;
  mutable last_call : int;
  mutable call_ctr : int;
  mutable worked_since_call : bool;
  mutable doomed : (abort_class * string) option;
      (* set when any sub-transaction aborted: the root may not commit even
         if application code swallowed the exception (§2.2.3) *)
  mutable logged_epoch : int option;
      (* epoch of this root's redo record, once appended to the WAL *)
}

let deadline_expired root =
  root.deadline < Float.infinity && Engine.current_time () > root.deadline

(* Deadline checks sit at phase boundaries only — admission, body start,
   sub-call start, resume after an await, implicit sync, commit entry, 2PC
   prepare — so an expired deadline always unwinds through the same typed
   abort path as any other abort. *)
let check_deadline root ~where =
  if deadline_expired root then
    raise (Obs.Abort.Timed_out ("deadline expired " ^ where))

(* Invocation frame: one (sub-)transaction execution on one reactor. *)
type frame = {
  froot : root;
  frstate : rstate;
  fex : executor;
  on_root_path : bool;
  mutable children : sub list;
  fpenalty : float; (* cache-miss penalty fraction for this invocation *)
}

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
    cont.cexecutors.(db.cfg.affinity_slot rst.rname mod n)

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
let work frame d =
  if d > 0. then Engine.delay d;
  if frame.on_root_path then begin
    frame.froot.bd.bd_sync_exec <- frame.froot.bd.bd_sync_exec +. d;
    frame.froot.worked_since_call <- true
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

let charge_data db frame kind n =
  let p = db.prof in
  let base =
    match kind with
    | `Read -> p.Profile.cost_read
    | `Write -> p.Profile.cost_write
    | `Scan_step -> p.Profile.cost_scan_step
  in
  let per = base +. (frame.fpenalty *. p.Profile.cost_cache_miss) in
  work frame (per *. float_of_int n)

(* Await a child sub-transaction. Returns its result without raising. If the
   future is already resolved this is free; otherwise the caller yields its
   core, pays Cr on wake, and the blocked window is attributed to
   sync-execution (immediate get, no intervening work: the "synchronous
   call" pattern) or to async-execution (deferred get: overlap window). *)
let await_sub db frame sub =
  match Engine.Ivar.peek sub.siv with
  | Some r -> r
  | None ->
    let root = frame.froot in
    let sync_class =
      frame.on_root_path && root.last_call = sub.sfid
      && not root.worked_since_call
    in
    let t0 = Engine.current_time () in
    release_core frame.fex;
    let r = Engine.Ivar.read sub.siv in
    acquire_core frame.fex;
    let blocked = Engine.current_time () -. t0 in
    Engine.delay db.prof.Profile.cost_recv;
    if frame.on_root_path then begin
      root.bd.bd_cr <- root.bd.bd_cr +. db.prof.Profile.cost_recv;
      if sync_class then root.bd.bd_sync_exec <- root.bd.bd_sync_exec +. blocked
      else root.bd.bd_async_exec <- root.bd.bd_async_exec +. blocked;
      (* lifecycle trace: the root's blocked window on a cross-reactor
         future, regardless of sync/async classification *)
      Obs.Trace.add root.tr Obs.Phase.Suspend_wait blocked;
      root.worked_since_call <- true
    end;
    r

let set_exec_of root cid ex =
  if not (List.mem_assoc cid root.exec_of_container) then
    root.exec_of_container <- (cid, ex) :: root.exec_of_container

let rec run_procedure db ~root ~rstate ~ex ~on_root_path ~proc_name ~args =
  let procfn = Reactor.find_proc rstate.rtype proc_name in
  let frame =
    { froot = root; frstate = rstate; fex = ex; on_root_path; children = [];
      fpenalty = cache_penalty rstate ex.xid }
  in
  set_exec_of root rstate.home ex;
  work frame db.prof.Profile.cost_proc_base;
  let ctx =
    {
      Reactor.db =
        Query.Exec.make_ctx ?snapshot:root.rsnapshot ~txn:root.txn
          ~container:rstate.home ~catalog:rstate.rcatalog
          ~charge:(fun kind n -> charge_data db frame kind n)
          ~work:(fun us -> work frame us) ();
      self = rstate.rname;
      call = (fun ~reactor ~proc ~args -> do_call db frame ~reactor ~proc ~args);
      collect =
        (fun futures ->
          (* Fork–join barrier: consume every future (out-of-order
             completion is fine — resolved ivars are peeked for free),
             capturing per-future errors so a failure in one sub-call
             never unwinds while siblings are still outstanding. Only
             after all futures have completed do we re-raise the first
             non-deadline error in list order. A deadline expiry seen by
             any per-future resume check is the root's one budget, so it
             is reported as the collect-boundary check firing. *)
          let results =
            List.map
              (fun f -> try Ok (f.Reactor.get ()) with e -> Error e)
              futures
          in
          (match
             List.find_opt
               (function
                 | Error (Obs.Abort.Timed_out _) | Ok _ -> false
                 | Error _ -> true)
               results
           with
          | Some (Error e) -> raise e
          | _ -> ());
          if
            List.exists
              (function Error _ -> true | Ok _ -> false)
              results
          then raise (Obs.Abort.Timed_out "deadline expired at collect boundary");
          check_deadline root ~where:"at collect boundary";
          List.map
            (function Ok v -> v | Error _ -> assert false)
            results);
    }
  in
  let result = try Ok (procfn ctx args) with e -> Error e in
  touch_cache rstate ex.xid;
  (* Implicit synchronization: a (sub-)transaction completes only when all
     its children complete — even on the abort path, since in-flight children
     mutate the shared transaction context. *)
  let first_err = ref (match result with Error e -> Some e | Ok _ -> None) in
  List.iter
    (fun sub ->
      match await_sub db frame sub with
      | Ok _ -> ()
      | Error e -> if !first_err = None then first_err := Some e)
    (List.rev frame.children);
  (* Implicit sync done: every child has completed, so raising here cannot
     leave a sub-transaction mutating the shared context. *)
  if !first_err = None && frame.children <> [] && deadline_expired root then
    first_err := Some (Obs.Abort.Timed_out "deadline expired after implicit sync");
  match !first_err with
  | Some e -> raise e
  | None -> (match result with Ok v -> v | Error _ -> assert false)

and do_call db frame ~reactor ~proc ~args =
  let root = frame.froot in
  if reactor = frame.frstate.rname then begin
    (* Self-call: inlined synchronously in the same execution context
       (§2.2.4); the result is immediately available. *)
    let v =
      run_procedure db ~root ~rstate:frame.frstate ~ex:frame.fex
        ~on_root_path:frame.on_root_path ~proc_name:proc ~args
    in
    { Reactor.get = (fun () -> v) }
  end
  else begin
    let tstate = reactor_state db reactor in
    (* Dynamic safety condition (§2.2.4): at most one execution context may
       be active per reactor and root transaction. *)
    if Hashtbl.mem root.active_set reactor then
      raise
        (Reactor.Dangerous_call
           (Printf.sprintf "dangerous call structure: reactor %s already active"
              reactor));
    (* Migration stub: a sub-call from a post-mark root to a migrating
       reactor parks until the flip, then dispatches against the new
       placement. The caller's core is released across the park — a parked
       post-mark root must never hold a core a draining pre-mark root may
       need. Pre-mark roots pass through: the drain waits for them. *)
    (match Hashtbl.find_opt db.migrating reactor with
    | Some m when root.rgen > m.mg_cutoff ->
      release_core frame.fex;
      mig_stub_park m;
      acquire_core frame.fex
    | _ -> ());
    if tstate.home = frame.frstate.home then begin
      (* Same container: execute synchronously in the caller's executor to
         avoid migration-of-control overhead (§3.2.1). *)
      Hashtbl.add root.active_set reactor ();
      let finally () = Hashtbl.remove root.active_set reactor in
      let v =
        try
          run_procedure db ~root ~rstate:tstate ~ex:frame.fex
            ~on_root_path:frame.on_root_path ~proc_name:proc ~args
        with e ->
          finally ();
          raise e
      in
      finally ();
      { Reactor.get = (fun () -> v) }
    end
    else begin
      (* Cross-container: asynchronous dispatch through the transport to an
         executor of the destination container. *)
      Hashtbl.add root.active_set reactor ();
      root.call_ctr <- root.call_ctr + 1;
      let fid = root.call_ctr in
      let send_cost =
        db.prof.Profile.cost_send +. net db frame.frstate.home tstate.home
      in
      Engine.delay send_cost;
      if frame.on_root_path then begin
        root.bd.bd_cs <- root.bd.bd_cs +. send_cost;
        root.last_call <- fid;
        root.worked_since_call <- false
      end;
      let rex = route db tstate in
      set_exec_of root tstate.home rex;
      let iv = Engine.Ivar.create () in
      let caller_home = frame.frstate.home in
      let body () =
        acquire_core rex;
        (* the result message back to the caller also crosses the network *)
        Engine.delay
          (db.prof.Profile.cost_sub_dispatch +. net db caller_home tstate.home);
        let res =
          try
            check_deadline root ~where:"at sub-transaction start";
            Ok
              (run_procedure db ~root ~rstate:tstate ~ex:rex
                 ~on_root_path:false ~proc_name:proc ~args)
          with e -> Error e
        in
        (match res with
        | Error e -> (
          match classify_exn e with
          | Some km -> if root.doomed = None then root.doomed <- Some km
          | None -> ())
        | Ok _ -> ());
        release_core rex;
        Hashtbl.remove root.active_set reactor;
        Engine.Ivar.fill iv res
      in
      (* Sub-transactions bypass root admission control (they belong to an
         already-admitted root) but contend for the destination core. *)
      Engine.spawn_here body;
      let sub = { sfid = fid; siv = iv } in
      frame.children <- sub :: frame.children;
      {
        Reactor.get =
          (fun () ->
            match await_sub db frame sub with
            | Ok v ->
              (* Resumed after a (possibly long) blocked window: re-check
                 the budget before the body continues. Raises inside the
                 procedure body, so the implicit sync still awaits every
                 sibling before the frame unwinds. *)
              check_deadline root ~where:"on resume after sub-transaction";
              v
            | Error e -> raise e);
      }
    end
  end

(* ------------------------------------------------------------------ *)
(* Commit protocols. *)

let validation_cost db txn c =
  db.prof.Profile.cost_commit_base
  +. db.prof.Profile.cost_commit_per_op
     *. float_of_int (Occ.Txn.ops_in txn ~container:c)

let wal_log db root tid =
  match db.wal with
  | None -> ()
  | Some log ->
    let writes =
      List.map
        (fun e ->
          let reactor, table =
            match Hashtbl.find_opt db.table_owner e.Occ.Txn.wtable.Storage.Table.uid with
            | Some rt -> rt
            | None -> ("?", e.Occ.Txn.wtable.Storage.Table.schema.Storage.Schema.sname)
          in
          match e.Occ.Txn.kind with
          | Occ.Txn.Update row -> Wal.Put { reactor; table; row }
          | Occ.Txn.Insert ->
            Wal.Put { reactor; table; row = e.Occ.Txn.wrec.Storage.Record.data }
          | Occ.Txn.Delete -> Wal.Del { reactor; table; key = e.Occ.Txn.wkey })
        (Occ.Txn.all_writes root.txn)
    in
    if writes <> [] then begin
      Wal.append log
        { Wal.le_txn = Occ.Txn.id root.txn; le_tid = tid; le_writes = writes };
      root.logged_epoch <- Some (Storage.Record.tid_epoch tid)
    end

(* [Wal.Io_error] from a failed append, turned into a commit error by the
   callers (locks still held at that point, so the release path runs). *)
let wal_log_checked db root tid =
  try
    wal_log db root tid;
    Ok ()
  with Wal.Io_error m -> Error m

let note_history db root tid =
  if db.record_history then begin
    let reads =
      List.concat_map
        (fun c ->
          List.map
            (fun (r, observed) -> (r.Storage.Record.rid, observed))
            (Occ.Txn.reads_in root.txn ~container:c))
        (Occ.Txn.containers root.txn)
    in
    let writes = ref [] in
    Occ.Txn.iter_all_writes root.txn ~f:(fun e ->
        writes := e.Occ.Txn.wrec.Storage.Record.rid :: !writes);
    let writes = List.rev !writes in
    db.hist <-
      { h_txn = Occ.Txn.id root.txn; h_tid = tid; h_reads = reads;
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
        (match Chaos.draw_us db.chaos Chaos.Stall_flush with
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
let wait_durable db root =
  match root.logged_epoch with
  | None -> ()
  | Some e ->
    if db.durable && e > db.flushed_epoch then begin
      schedule_flush db;
      Engine.suspend (fun waker ->
          db.epoch_waiters <- (e, waker) :: db.epoch_waiters)
    end

(* Typed commit failures: [C_fail] carries the validation verdict,
   [C_timeout] is a participant refusing to prepare past the root's
   deadline, [C_wal] a log-device failure while appending the redo
   record. *)
type commit_err =
  | C_fail of Occ.Commit.fail_reason
  | C_timeout
  | C_wal of string
  | C_killed
      (* the Kill_primary chaos probe fenced the engine mid-2PC: votes
         resolved but nothing was installed or logged durable — the
         transaction rolls back exactly like an abort vote *)

(* Two-phase commit (§3.2.2): phase one runs Silo validation with locks on
   every participant; phase two installs or releases. Remote phases execute
   as control steps on an executor of the participant container (the one
   that ran the transaction's sub-transactions there), each step atomic in
   virtual time. The coordinator yields its core while waiting. *)
let two_phase db root ex containers ~epoch =
  let p = db.prof in
  let executor_for c =
    match List.assoc_opt c root.exec_of_container with
    | Some e -> e
    | None -> db.containers.(c).cexecutors.(0)
  in
  let remote_step c f =
    Engine.delay (p.Profile.cost_2pc_msg +. net db ex.cid c);
    let iv = Engine.Ivar.create () in
    let rex = executor_for c in
    Engine.spawn_here (fun () ->
        acquire_core rex;
        Engine.delay p.Profile.cost_sub_dispatch;
        let r = f () in
        release_core rex;
        Engine.Ivar.fill iv r);
    iv
  in
  let wait iv =
    match Engine.Ivar.peek iv with
    | Some r -> r
    | None ->
      release_core ex;
      let r = Engine.Ivar.read iv in
      acquire_core ex;
      r
  in
  (* One participant's prepare: refuse outright when the root's deadline
     has already passed (no validation work, no locks taken — the
     coordinator rolls the prepared participants back like any abort
     vote), otherwise validate. *)
  let prepare_vote c () =
    if deadline_expired root then Error C_timeout
    else begin
      Engine.delay (validation_cost db root.txn c);
      Result.map_error (fun fr -> C_fail fr)
        (Occ.Commit.prepare root.txn ~container:c)
    end
  in
  (* Phase 1. Validation span on the root's timeline: from entering phase
     one until every participant's vote has resolved. *)
  let t_val = Engine.current_time () in
  let prepares =
    List.map
      (fun c ->
        if c = ex.cid then (c, `Done (prepare_vote c ()))
        else (c, `Pending (remote_step c (prepare_vote c))))
      containers
  in
  let resolved =
    List.map
      (fun (c, r) ->
        match r with `Done v -> (c, v) | `Pending iv -> (c, wait iv))
      prepares
  in
  Obs.Trace.add root.tr Obs.Phase.Validation (Engine.current_time () -. t_val);
  let t_dec = Engine.current_time () in
  (* Phase 2 (abort): roll back every prepared participant. *)
  let rollback prepared =
    let acks =
      List.filter_map
        (fun c ->
          if c = ex.cid then begin
            Occ.Commit.release root.txn ~container:c;
            None
          end
          else
            Some (remote_step c (fun () -> Occ.Commit.release root.txn ~container:c)))
        prepared
    in
    List.iter wait acks;
    Obs.Trace.add root.tr Obs.Phase.Commit (Engine.current_time () -. t_dec)
  in
  (* Chaos: the primary dies mid-2PC — phase-one votes have resolved,
     nothing is installed, no redo record was appended. The engine fences
     itself (generation-stamped admission refuses everything from here
     on) and this transaction rolls back through the normal release path,
     so no replica or recovery replay can ever observe it. *)
  (match Chaos.draw_us db.chaos Chaos.Kill_primary with
  | Some _ -> db.fenced <- true
  | None -> ());
  if db.fenced then begin
    rollback
      (List.filter_map
         (fun (c, v) -> if Result.is_ok v then Some c else None)
         resolved);
    Error C_killed
  end
  else if List.for_all (fun (_, v) -> Result.is_ok v) resolved then begin
    let tid = Occ.Commit.compute_tid root.txn ~epoch in
    (* Write-ahead: append the redo record while every participant still
       holds its locks, so a failed log device rolls the transaction back
       instead of leaving installed writes with no durable record. *)
    match wal_log_checked db root tid with
    | Error m ->
      rollback containers;
      Error (C_wal m)
    | Ok () ->
      (* Phase 2: install. *)
      let acks =
        List.map
          (fun c ->
            if c = ex.cid then begin
              Engine.delay p.Profile.cost_commit_base;
              Occ.Commit.install ?horizon:(install_horizon db) root.txn
                ~container:c ~tid;
              None
            end
            else
              Some
                (remote_step c (fun () ->
                     Engine.delay p.Profile.cost_commit_base;
                     Occ.Commit.install ?horizon:(install_horizon db) root.txn
                       ~container:c ~tid)))
          containers
      in
      List.iter (function Some iv -> wait iv | None -> ()) acks;
      note_history db root tid;
      Obs.Trace.add root.tr Obs.Phase.Commit (Engine.current_time () -. t_dec);
      Ok ()
  end
  else begin
    rollback
      (List.filter_map
         (fun (c, v) -> if Result.is_ok v then Some c else None)
         resolved);
    let reason =
      match
        List.find_map
          (fun (_, v) -> match v with Error r -> Some r | Ok () -> None)
          resolved
      with
      | Some r -> r
      | None -> assert false
    in
    Error reason
  end

let do_commit db root ex =
  let epoch = current_epoch db in
  match Occ.Txn.containers root.txn with
  | [] ->
    let t0 = Engine.current_time () in
    Engine.delay db.prof.Profile.cost_commit_base;
    Obs.Trace.add root.tr Obs.Phase.Commit (Engine.current_time () -. t0);
    Ok ()
  | [ c ] when c = ex.cid ->
    (* commit_single, unrolled so validation and install land in their own
       trace phases; the virtual-time charges are unchanged. *)
    let t0 = Engine.current_time () in
    Engine.delay (validation_cost db root.txn c);
    (match Occ.Commit.prepare root.txn ~container:c with
    | Error r ->
      Obs.Trace.add root.tr Obs.Phase.Validation (Engine.current_time () -. t0);
      Error (C_fail r)
    | Ok () ->
      Obs.Trace.add root.tr Obs.Phase.Validation (Engine.current_time () -. t0);
      let t1 = Engine.current_time () in
      let tid = Occ.Commit.compute_tid root.txn ~epoch in
      (* write-ahead: append before install (see two_phase) *)
      (match wal_log_checked db root tid with
      | Error m ->
        Occ.Commit.release root.txn ~container:c;
        Obs.Trace.add root.tr Obs.Phase.Commit (Engine.current_time () -. t1);
        Error (C_wal m)
      | Ok () ->
        Occ.Commit.install ?horizon:(install_horizon db) root.txn ~container:c
          ~tid;
        note_history db root tid;
        Obs.Trace.add root.tr Obs.Phase.Commit (Engine.current_time () -. t1);
        Ok ()))
  | containers -> two_phase db root ex containers ~epoch

(* ------------------------------------------------------------------ *)

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

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
  let bd = zero_breakdown () in
  let tr =
    match db.obs with Some c -> Obs.Collector.trace c | None -> Obs.Trace.none
  in
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
    if db.snapshots_enabled && Reactor.proc_readonly rst.rtype proc then
      Some (acquire_snapshot db)
    else None
  in
  let root =
    { txn; rgen; rsnapshot; bd; tr; deadline; active_set = Hashtbl.create 8;
      exec_of_container = []; last_call = 0; call_ctr = 0;
      worked_since_call = false; doomed = None; logged_epoch = None }
  in
  let ex = route db rst in
  Engine.delay p.Profile.cost_client_dispatch;
  let done_iv = Engine.Ivar.create () in
  (* Queue wait runs from the push into the executor's request queue to the
     moment the body holds the core: mailbox residence, MPL admission, and
     the core handoff itself. *)
  let t_enq = ref 0. in
  let body () =
    acquire_core ex;
    let t_body = Engine.current_time () in
    Obs.Trace.add tr Obs.Phase.Queue_wait (t_body -. !t_enq);
    Hashtbl.add root.active_set reactor ();
    let res =
      try
        (* Dequeue boundary: a root whose whole budget went to queueing
           (or MPL admission) aborts before touching any record. *)
        check_deadline root ~where:"before execution";
        let v =
          run_procedure db ~root ~rstate:rst ~ex ~on_root_path:true
            ~proc_name:proc ~args
        in
        match root.doomed with
        | Some km -> Error (`Aborted km)
        | None -> Ok v
      with e -> Error (`Fatal e)
    in
    Hashtbl.remove root.active_set reactor;
    (* Exec = body span minus the root's blocked windows (accumulated into
       Suspend_wait by await_sub while the body ran). *)
    Obs.Trace.add tr Obs.Phase.Exec
      (Engine.current_time () -. t_body
      -. Obs.Trace.get tr Obs.Phase.Suspend_wait);
    let out =
      match res with
      | Ok _ when deadline_expired root ->
        (* Commit entry: nothing is prepared yet, so expiring here just
           drops the read/write sets — no locks to release. *)
        Error (Ab_timeout, "deadline expired before commit", Obs.Abort.Timeout)
      | Ok v when root.rsnapshot <> None ->
        (* Read-only snapshot root: nothing to validate, install or log —
           the result is final the moment the body returns. *)
        Ok v
      | Ok v -> (
        (* A log-device failure during commit surfaces as a typed internal
           abort, not a raw exception unwinding through the engine. *)
        match
          try do_commit db root ex with Wal.Io_error m -> Error (C_wal m)
        with
        | Ok () -> Ok v
        | Error (C_fail fr) ->
          Error (Ab_validation, Occ.Commit.fail_message fr, obs_kind_of_fail fr)
        | Error C_timeout ->
          Error
            (Ab_timeout, "deadline expired during 2pc prepare", Obs.Abort.Timeout)
        | Error (C_wal m) ->
          Error (Ab_internal, "wal write failed: " ^ m, Obs.Abort.Internal)
        | Error C_killed ->
          Error (Ab_internal, "primary killed mid-2pc", Obs.Abort.Internal))
      | Error (`Aborted (k, m)) -> Error (k, m, obs_kind_of_class k)
      | Error (`Fatal e) -> (
        match classify_exn e with
        | Some (k, m) -> Error (k, m, obs_kind_of_class k)
        | None ->
          (* Programming errors (not aborts) escape to the engine. *)
          release_core ex;
          raise e)
    in
    release_core ex;
    Engine.Ivar.fill done_iv out
  in
  (* Admission control: with a mailbox cap set, a root arriving at a full
     request queue is shed here — it never occupies a queue slot, an MPL
     slot or a core. Sub-transactions and commit traffic of admitted roots
     are never shed. *)
  let shed =
    match db.mailbox_cap with
    | Some cap -> Engine.Mailbox.length ex.queue >= cap
    | None -> false
  in
  let out =
    if db.fenced then begin
      (* Generation fencing: a fenced primary refuses every admission
         outright — the root never enqueues, never touches a record. The
         refusal is a typed outcome so drivers can count it exactly. *)
      db.n_fenced <- db.n_fenced + 1;
      Error
        (Ab_internal, "fenced: stale primary generation", Obs.Abort.Internal)
    end
    else if shed then
      Error
        (Ab_overload, "overloaded: admission queue full", Obs.Abort.Overloaded)
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
  (* Durable mode: hold the client until the flush covering this
     transaction's log epoch completes (the executor slot is already free,
     so group commit costs latency, not admission capacity). *)
  (* The snapshot's GC pin is dropped as soon as the outcome is known —
     including on the admission-shed path, where the body never ran. *)
  (match root.rsnapshot with Some s -> release_snapshot db s | None -> ());
  (match out with
  | Ok _ ->
    let t_flush = Engine.current_time () in
    wait_durable db root;
    Obs.Trace.add tr Obs.Phase.Flush_wait (Engine.current_time () -. t_flush)
  | Error _ -> ());
  let result =
    match out with Ok v -> Ok v | Error (_, m, _) -> Error m
  in
  let latency = Engine.current_time () -. t_start in
  (* Overhead bucket = everything not attributed to the execution-path
     buckets: input generation, dispatch, commit, queueing. *)
  bd.bd_overhead <-
    Float.max 0.
      (latency -. bd.bd_sync_exec -. bd.bd_cs -. bd.bd_cr -. bd.bd_async_exec);
  let participants =
    Stdlib.max 1 (List.length (Occ.Txn.containers txn))
  in
  let abort_cause =
    match out with
    | Ok _ -> None
    | Error (_, _, kind) -> Some (Obs.Abort.cause ~participants ~retry kind)
  in
  (match out with
  | Ok _ ->
    db.committed <- db.committed + 1;
    if root.rsnapshot <> None then db.n_ro_commits <- db.n_ro_commits + 1
  | Error (k, _, _) ->
    db.aborted <- db.aborted + 1;
    bump db.abort_reasons (bucket_of_class k));
  (match db.obs with
  | None -> ()
  | Some c -> (
    match abort_cause with
    | None ->
      Obs.Collector.record_commit c ~container:rst.home ~participants ~retry
        ~readonly:(root.rsnapshot <> None) ~latency_us:latency tr
    | Some cause ->
      Obs.Collector.record_abort c ~container:rst.home ~latency_us:latency
        ~cause tr));
  {
    result;
    latency;
    breakdown = bd;
    containers_touched = List.length (Occ.Txn.containers txn);
    abort_cause;
    snapshot = root.rsnapshot;
  }

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
      committed = 0;
      aborted = 0;
      abort_reasons = Hashtbl.create 8;
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
      obs = None;
      chaos = Chaos.none;
      mailbox_cap = None;
      snapshots_enabled = true;
      snap_live = Hashtbl.create 16;
      n_ro_commits = 0;
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
      prim_gen = 0;
      fenced = false;
      n_fenced = 0;
    }
  in
  List.iter
    (fun e ->
      Hashtbl.add db.reactors e.Bootstrap.bs_name
        { rname = e.Bootstrap.bs_name; rtype = e.Bootstrap.bs_rtype;
          rcatalog = e.Bootstrap.bs_catalog; home = e.Bootstrap.bs_home;
          cache_recency = [] })
    entries;
  Array.iter
    (fun cont ->
      Array.iter (fun ex -> Engine.spawn eng (dispatcher db ex)) cont.cexecutors)
    containers;
  db

let catalog_of db name = (reactor_state db name).rcatalog
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
let n_committed db = db.committed
let n_aborted db = db.aborted

let aborts_by_reason db =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) db.abort_reasons []

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
  db.committed <- 0;
  db.aborted <- 0;
  db.n_flushes <- 0;
  db.n_ro_commits <- 0;
  Hashtbl.reset db.abort_reasons;
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

let attach_obs db c = db.obs <- Some c
let attach_chaos db c = db.chaos <- c
let set_mailbox_cap db cap = db.mailbox_cap <- cap
let set_snapshots db b = db.snapshots_enabled <- b
let snapshots_enabled db = db.snapshots_enabled
let n_readonly_commits db = db.n_ro_commits
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

let generation db = db.prim_gen
let set_generation db g = db.prim_gen <- g
let fence db = db.fenced <- true
let fenced db = db.fenced
let n_fenced_refusals db = db.n_fenced
let history db = List.rev db.hist
