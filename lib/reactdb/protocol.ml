(* One copy of the transaction protocol over two schedulers (DESIGN.md
   §5.3). Everything here is scheduler-neutral: where the simulator and
   the runtime differ — how an executor blocks, what work costs, how a
   stall or a fatal exception is handled, where the redo record goes — the
   code calls into [S]. *)

include Protocol_intf

(* Typed abort classification, replacing substring matching on messages: a
   user abort whose text happens to contain "duplicate key" must still be
   counted as a user abort. *)
let classify_exn = function
  | Occ.Txn.Abort m -> Some (Ab_user, m)
  | Occ.Txn.Conflict m -> Some (Ab_conflict, m)
  | Reactor.Dangerous_call m -> Some (Ab_dangerous, m)
  | Obs.Abort.Timed_out m -> Some (Ab_timeout, m)
  | _ -> None

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

let overloaded =
  Error (Ab_overload, "overloaded: admission queue full", Obs.Abort.Overloaded)

let fenced_message = "fenced: stale primary generation"
let fenced_refusal = Error (Ab_internal, fenced_message, Obs.Abort.Internal)
let result_of = function Ok v -> Ok v | Error (_, m, _) -> Error m

(* ------------------------------------------------------------------ *)
(* Counters, fencing and the collector record. *)

let bucket_names =
  [| "user"; "validation"; "dangerous-structure"; "timeout"; "overloaded";
     "internal" |]

let bucket_index = function
  | Ab_user -> 0
  | Ab_conflict | Ab_validation -> 1
  | Ab_dangerous -> 2
  | Ab_timeout -> 3
  | Ab_overload -> 4
  | Ab_internal -> 5

let make_state chaos =
  { obs = None; chaos; committed = Atomic.make 0; aborted = Atomic.make 0;
    ro_commits = Atomic.make 0;
    buckets = Array.map (fun _ -> Atomic.make 0) bucket_names;
    generation = Atomic.make 0; fenced = Atomic.make false;
    n_fenced = Atomic.make 0 }

let aborts_by_reason st =
  Array.to_list bucket_names
  |> List.mapi (fun i name -> (name, Atomic.get st.buckets.(i)))
  |> List.filter (fun (_, n) -> n > 0)

let reset_counts st =
  List.iter (fun a -> Atomic.set a 0) [ st.committed; st.aborted; st.ro_commits ];
  Array.iter (fun a -> Atomic.set a 0) st.buckets

let refuse_fenced st = Atomic.get st.fenced && (Atomic.incr st.n_fenced; true)

let settle st ?slot ~participants ~retry ~readonly ~latency_us tr v =
  let abort_cause =
    match v with
    | Ok _ ->
      Atomic.incr st.committed;
      if readonly then Atomic.incr st.ro_commits;
      None
    | Error (k, _, kind) ->
      Atomic.incr st.aborted;
      Atomic.incr st.buckets.(bucket_index k);
      Some (Obs.Abort.cause ~participants ~retry kind)
  in
  (match (st.obs, slot, abort_cause) with
  | Some c, Some container, None ->
    Obs.Collector.record_commit c ~container ~participants ~retry ~readonly
      ~latency_us tr
  | Some c, Some container, Some cause ->
    Obs.Collector.record_abort c ~container ~latency_us ~cause tr
  | _ -> ());
  abort_cause

(* After-images come from the transaction's private buffers: update rows
   are the buffered arrays, insert records are still locked (held from
   creation) so no later committer can swap their data pointer, delete
   keys are immutable. *)
let redo_writes table_owner txn =
  List.map
    (fun e ->
      let reactor, table =
        match Hashtbl.find_opt table_owner e.Occ.Txn.wtable.Storage.Table.uid with
        | Some rt -> rt
        | None -> ("?", e.Occ.Txn.wtable.Storage.Table.schema.Storage.Schema.sname)
      in
      match e.Occ.Txn.kind with
      | Occ.Txn.Update row -> Wal.Put { reactor; table; row }
      | Occ.Txn.Insert ->
        Wal.Put { reactor; table; row = e.Occ.Txn.wrec.Storage.Record.data }
      | Occ.Txn.Delete -> Wal.Del { reactor; table; key = e.Occ.Txn.wkey })
    (Occ.Txn.all_writes txn)

module Make (S : SCHED) = struct
  type root = {
    txn : Occ.Txn.t;
    rgen : int;
        (* migration generation the root was admitted in; a sub-call to a
           reactor marked with an older cutoff parks at the stub *)
    rsnapshot : int option;
        (* frozen snapshot epoch when this root runs read-only; propagates
           to every sub-call's query context, so cross-container fan-outs
           read the same consistent cut *)
    tr : Obs.Trace.t; (* lifecycle trace; Obs.Trace.none when no collector *)
    timed : bool;
    deadline : float;
        (* [infinity] when the root has no deadline, keeping every check
           one float compare and no clock read *)
    active_set : (string, unit) Hashtbl.t;
    mutable doomed : (abort_class * string) option;
        (* set when any sub-transaction aborted: the root may not commit
           even if application code swallowed the exception (§2.2.3) *)
    rx : S.rext;
  }

  let make_root db ~txn ~rgen ~rsnapshot ~deadline rx =
    let tr =
      match (S.state db).obs with
      | Some c -> Obs.Collector.trace c
      | None -> Obs.Trace.none
    in
    { txn; rgen; rsnapshot; tr; timed = S.timed tr; deadline;
      active_set = Hashtbl.create 8; doomed = None; rx }

  let trace root = root.tr
  let clock root = if root.timed then S.now () else 0.

  let stamp root phase t0 =
    if root.timed then Obs.Trace.add root.tr phase (S.now () -. t0)

  let deadline_expired root =
    root.deadline < Float.infinity && S.now () > root.deadline

  (* Deadline checks sit at phase boundaries only — admission, body start,
     sub-call start, resume after an await, implicit sync, commit entry, 2PC
     prepare — never inside application code, so an expired deadline always
     unwinds through the same typed abort path as any other abort. *)
  let check_deadline root ~where =
    if deadline_expired root then
      raise (Obs.Abort.Timed_out ("deadline expired " ^ where))

  type sub = { sfid : int; siv : (Util.Value.t, exn) result S.ivar }

  (* Invocation frame: one (sub-)transaction execution on one reactor.
     [fhome] is stable for the frame's lifetime by the drain argument
     (§11): a flip only happens after every root allowed at the old home
     completed. [fex] is an executor of [fhome], except for the body of a
     cost-routed root. *)
  type frame = {
    froot : root;
    fplace : S.place;
    fhome : int;
    fex : S.exec;
    fpath : bool; (* on the root's critical path *)
    fx : S.fext;
    mutable children : sub list;
  }

  (* Await a child without raising. Free if resolved; otherwise the
     executor and the root's body right are released while blocked, and on
     the root path the blocked window is stamped into the trace. *)
  let await_sub db frame sub =
    match S.peek sub.siv with
    | Some r -> r
    | None ->
      let root = frame.froot in
      let timed = frame.fpath && root.timed in
      let t0 = if timed then S.now () else 0. in
      S.leave root.rx;
      let r = S.await frame.fex sub.siv in
      S.enter root.rx;
      let blocked = if timed then S.now () -. t0 else 0. in
      S.resumed db frame.fx ~sfid:sub.sfid ~blocked;
      if timed then Obs.Trace.add root.tr Obs.Phase.Suspend_wait blocked;
      r

  (* Fork–join barrier: consume every future (out-of-order completion is
     fine — resolved ivars are peeked for free), capturing per-future errors
     so a failure in one sub-call never unwinds while siblings are still
     outstanding. Only after all futures have completed is the first
     non-deadline error in list order re-raised. A deadline expiry seen by
     any per-future resume check is the root's one budget, so it is
     reported as the collect-boundary check firing. *)
  let collect root futures =
    let results =
      List.map (fun f -> try Ok (f.Reactor.get ()) with e -> Error e) futures
    in
    List.iter
      (function Error (Obs.Abort.Timed_out _) | Ok _ -> () | Error e -> raise e)
      results;
    if List.exists Result.is_error results then
      raise (Obs.Abort.Timed_out "deadline expired at collect boundary");
    check_deadline root ~where:"at collect boundary";
    List.map Result.get_ok results

  let rec run_procedure db ~root ~place ~home ~ex ~on_root_path ~proc_name ~args =
    let entry = S.entry place in
    let procfn = Reactor.find_proc entry.Bootstrap.bs_rtype proc_name in
    let hooks = S.frame_enter db root.rx place ~home ex ~on_root_path in
    let frame =
      { froot = root; fplace = place; fhome = home; fex = ex;
        fpath = on_root_path; fx = hooks.fx; children = [] }
    in
    let ctx =
      {
        Reactor.db =
          Query.Exec.make_ctx ?snapshot:root.rsnapshot ~txn:root.txn
            ~container:home ~catalog:entry.Bootstrap.bs_catalog
            ~charge:hooks.charge_data ~work:hooks.charge_work ();
        self = entry.Bootstrap.bs_name;
        call = (fun ~reactor ~proc ~args -> do_call db frame ~reactor ~proc ~args);
        collect = collect root;
      }
    in
    let result = try Ok (procfn ctx args) with e -> Error e in
    hooks.exit ();
    (* Implicit synchronization: a (sub-)transaction completes only when all
       its children complete — even on the abort path, since in-flight
       children mutate the shared transaction context. *)
    let first_err = ref (match result with Error e -> Some e | Ok _ -> None) in
    List.iter
      (fun sub ->
        match await_sub db frame sub with
        | Ok _ -> ()
        | Error e -> if !first_err = None then first_err := Some e)
      (List.rev frame.children);
    (* Every child has completed, so raising here cannot leave a
       sub-transaction mutating the shared context. *)
    if !first_err = None && frame.children <> [] && deadline_expired root then
      first_err := Some (Obs.Abort.Timed_out "deadline expired after implicit sync");
    match !first_err with Some e -> raise e | None -> Result.get_ok result

  and do_call db frame ~reactor ~proc ~args =
    let root = frame.froot in
    if reactor = (S.entry frame.fplace).Bootstrap.bs_name then begin
      (* Self-call: inlined synchronously in the same execution context
         (§2.2.4); the result is immediately available. *)
      let v =
        run_procedure db ~root ~place:frame.fplace ~home:frame.fhome
          ~ex:frame.fex ~on_root_path:frame.fpath ~proc_name:proc ~args
      in
      { Reactor.get = (fun () -> v) }
    end
    else begin
      let target = S.place db reactor in
      let home = S.gate db root.rx frame.fex ~rgen:root.rgen target in
      (* Dynamic safety condition (§2.2.4): at most one execution context may
         be active per reactor and root transaction. Checked after the gate,
         with no suspension before the add: a sibling sub-call parked at
         the same stub must see this activation. *)
      if Hashtbl.mem root.active_set reactor then
        raise
          (Reactor.Dangerous_call
             (Printf.sprintf "dangerous call structure: reactor %s already active"
                reactor));
      Hashtbl.add root.active_set reactor ();
      if home = frame.fhome then begin
        (* Same container: execute synchronously in the caller's executor to
           avoid migration-of-control overhead (§3.2.1). *)
        let v =
          try
            run_procedure db ~root ~place:target ~home ~ex:frame.fex
              ~on_root_path:frame.fpath ~proc_name:proc ~args
          with e ->
            Hashtbl.remove root.active_set reactor;
            raise e
        in
        Hashtbl.remove root.active_set reactor;
        { Reactor.get = (fun () -> v) }
      end
      else begin
        (* Cross-container: ship the body to an executor of the destination
           container. It bypasses root admission (it belongs to an admitted
           root) but contends for the destination executor. *)
        let src = frame.fhome in
        let sfid = S.send db frame.fx ~src target in
        let rex = S.sub_exec db root.rx target in
        let siv =
          S.spawn rex (fun () ->
              S.stall db Chaos.Delay_delivery;
              let dst = S.container rex in
              S.charge db (Arrive (src, dst));
              S.enter root.rx;
              let res =
                try
                  check_deadline root ~where:"at sub-transaction start";
                  Ok
                    (run_procedure db ~root ~place:target ~home:dst ~ex:rex
                       ~on_root_path:false ~proc_name:proc ~args)
                with e -> Error e
              in
              (match res with
              | Error e when root.doomed = None -> root.doomed <- classify_exn e
              | _ -> ());
              Hashtbl.remove root.active_set reactor;
              S.leave root.rx;
              res)
        in
        let sub = { sfid; siv } in
        frame.children <- sub :: frame.children;
        {
          Reactor.get =
            (fun () ->
              let v = Result.fold ~ok:Fun.id ~error:raise (await_sub db frame sub) in
              (* Resumed after a (possibly long) blocked window: re-check the
                 budget before the body continues. Raises inside the
                 procedure body, so the implicit sync still awaits every
                 sibling before the frame unwinds. *)
              check_deadline root ~where:"on resume after sub-transaction";
              v);
        }
      end
    end

  (* ---------------------------------------------------------------- *)
  (* Commit protocols. The body has finished and every child completed, so
     the transaction context is quiescent. Each container's prepare /
     install / release runs on an executor of that container. *)

  (* [C_fail] carries the validation verdict; [C_timeout] is a participant
     refusing to prepare past the root's deadline; [C_wal] a log-device
     failure appending the redo record; [C_killed] the Kill_primary probe
     fencing the primary mid-2PC (votes resolved, nothing installed or
     logged — the transaction rolls back like an abort vote); [C_internal]
     a guarded commit step that died on an exception; [C_crashed] the
     protocol itself raising. *)
  type commit_err =
    | C_fail of Occ.Commit.fail_reason
    | C_timeout
    | C_wal of string
    | C_killed
    | C_internal
    | C_crashed of string

  (* One commit step for container [c]: inline when [c] is the
     coordinator's container, otherwise a message to [c]'s executor. An
     exception out of a step would leave the coordinator waiting forever,
     so it goes to [S.fatal] and the step yields [fallback]. *)
  let commit_step db root ex c ~fallback f =
    let guarded () =
      try f ()
      with e ->
        S.fatal db e;
        fallback
    in
    let coord = S.container ex in
    if c = coord then `Done (guarded ())
    else begin
      S.charge db (Commit_msg (coord, c));
      `Pending
        (S.spawn (S.participant db root.rx c) (fun () ->
             S.charge db Commit_step;
             guarded ()))
    end

  let await_step ex = function
    | `Done v -> v
    | `Pending iv -> (match S.peek iv with Some v -> v | None -> S.await ex iv)

  (* One participant's prepare: refuse outright when the root's deadline has
     already passed (no validation work, no locks taken), otherwise
     validate. With [stall], the chaos stall fires after a successful
     prepare, i.e. with this participant's write locks held — the worst
     place to lose time. A commit local to the coordinator's container
     passes [~stall:false]: it sends no commit message to delay. *)
  let prepare db root ~stall c () =
    if deadline_expired root then Error C_timeout
    else begin
      S.charge db (Validate (root.txn, c));
      let r = Occ.Commit.prepare root.txn ~container:c in
      if stall && Result.is_ok r then S.stall db Chaos.Stall_prepare;
      Result.map_error (fun fr -> C_fail fr) r
    end

  (* Two-phase commit (§3.2.2): phase one runs Silo validation with locks on
     every participant; phase two installs or releases. The coordinator
     frees its executor while waiting. *)
  let two_phase db root ex containers ~epoch =
    let st = S.state db in
    let each cs ~fallback f =
      List.map (fun c -> commit_step db root ex c ~fallback (f c)) cs
      |> List.iter (await_step ex)
    in
    let release cs =
      each cs ~fallback:() (fun c () -> Occ.Commit.release root.txn ~container:c)
    in
    (* The validation span runs from entering phase one until every
       participant's vote has resolved. *)
    let t_val = clock root in
    let votes =
      List.map
        (fun c ->
          ( c,
            commit_step db root ex c ~fallback:(Error C_internal)
              (prepare db root ~stall:true c) ))
        containers
      |> List.map (fun (c, v) -> (c, await_step ex v))
    in
    stamp root Obs.Phase.Validation t_val;
    let t_dec = clock root in
    let prepared =
      List.filter_map (fun (c, v) -> if Result.is_ok v then Some c else None) votes
    in
    let refused =
      List.find_map (fun (_, v) -> match v with Error r -> Some r | Ok () -> None) votes
    in
    (* Chaos: the primary dies mid-2PC — votes have resolved, nothing is
       installed, no redo record was appended. The primary fences itself
       and this transaction rolls back through the normal release path, so
       no replica or recovery replay can ever observe it. *)
    (match Chaos.draw_us st.chaos Chaos.Kill_primary with
    | Some _ -> Atomic.set st.fenced true
    | None -> ());
    let r =
      if Atomic.get st.fenced then begin
        release prepared;
        Error C_killed
      end
      else
        match refused with
        | Some err ->
          release prepared;
          Error err
        | None -> (
          let tid = Occ.Commit.compute_tid root.txn ~epoch in
          (* Write-ahead: append the redo record while every participant
             still holds its locks, so a failed log device rolls the
             transaction back instead of leaving installed writes with no
             durable record. *)
          match S.log_ahead db root.rx root.txn ~tid with
          | Error m ->
            release containers;
            Error (C_wal m)
          | Ok () ->
            let horizon = S.horizon db in
            each containers ~fallback:() (fun c () ->
                S.charge db Install;
                Occ.Commit.install ?horizon root.txn ~container:c ~tid);
            Ok tid)
    in
    stamp root Obs.Phase.Commit t_dec;
    r

  (* Silo commit of a root whose only participant is [c], run on [c].
     Returns the verdict and when validation ended, which splits the
     trace's validation and commit phases. *)
  let commit_one db root c ~epoch ~stall () =
    let vote = prepare db root ~stall c () in
    let t_val = clock root in
    match vote with
    | Error e -> (Error e, t_val)
    | Ok () -> (
      let tid = Occ.Commit.compute_tid root.txn ~epoch in
      (* write-ahead: append before install (see two_phase) *)
      match S.log_ahead db root.rx root.txn ~tid with
      | Error m ->
        Occ.Commit.release root.txn ~container:c;
        (Error (C_wal m), t_val)
      | Ok () ->
        Occ.Commit.install ?horizon:(S.horizon db) root.txn ~container:c ~tid;
        (Ok tid, t_val))

  (* Returns the Silo TID on success (0 for an empty read/write set). *)
  let do_commit db root ex ~epoch =
    match Occ.Txn.containers root.txn with
    | [] ->
      let t0 = clock root in
      S.charge db Install;
      stamp root Obs.Phase.Commit t0;
      Ok 0
    | [ c ] ->
      (* Container-local when the body ran on [c]. Otherwise (a cost-routed
         root) the whole commit re-pins to [c] as one message, so
         container-local structural access stays owner-serialized at the
         price of a single round trip; messaging and owner-queue residence
         then count toward validation. *)
      let t0 = clock root in
      let r, t_val =
        if c = S.container ex then commit_one db root c ~epoch ~stall:false ()
        else
          await_step ex
            (commit_step db root ex c ~fallback:(Error C_internal, t0)
               (commit_one db root c ~epoch ~stall:true))
      in
      if root.timed then Obs.Trace.add root.tr Obs.Phase.Validation (t_val -. t0);
      stamp root Obs.Phase.Commit t_val;
      r
    | containers -> two_phase db root ex containers ~epoch

  let commit db root ex v =
    let epoch, pending = S.commit_begin db root.txn in
    let cres =
      try do_commit db root ex ~epoch with
      | Wal.Io_error m -> Error (C_wal m)
      | e ->
        S.fatal db e;
        Error (C_crashed (Printexc.to_string e))
    in
    (match S.commit_end db root.txn ~epoch pending ~tid:(Result.to_option cres) with
    | Some flushed ->
      let t = clock root in
      await_step ex (`Pending flushed);
      stamp root Obs.Phase.Flush_wait t
    | None -> ());
    let internal m = Error (Ab_internal, m, Obs.Abort.Internal) in
    match cres with
    | Ok _ -> Ok v
    | Error (C_fail fr) ->
      Error (Ab_validation, Occ.Commit.fail_message fr, obs_kind_of_fail fr)
    | Error C_timeout ->
      Error (Ab_timeout, "deadline expired during 2pc prepare", Obs.Abort.Timeout)
    | Error (C_wal m) -> internal ("wal write failed: " ^ m)
    | Error C_killed -> internal "primary killed mid-2pc"
    | Error C_internal -> internal "validation failed (2pc): internal vote error"
    | Error (C_crashed m) -> internal ("internal commit error: " ^ m)

  let execute db root ~place ~home ~ex ~reactor ~proc ~args ~t_enq =
    (* Chaos: the root's dispatch stalls before execution begins. *)
    S.stall db Chaos.Delay_delivery;
    (* Queue wait: enqueue → the body holding its executor (mailbox
       residence, admission, the handoff itself). *)
    let t_body = clock root in
    if root.timed then Obs.Trace.add root.tr Obs.Phase.Queue_wait (t_body -. t_enq);
    S.enter root.rx;
    Hashtbl.add root.active_set reactor ();
    let res =
      try
        (* Dequeue boundary: a root whose whole budget went to queueing
           aborts before touching any record. *)
        check_deadline root ~where:"before execution";
        let v =
          run_procedure db ~root ~place ~home ~ex ~on_root_path:true
            ~proc_name:proc ~args
        in
        match root.doomed with Some km -> Error (`Aborted km) | None -> Ok v
      with e -> Error (`Fatal e)
    in
    Hashtbl.remove root.active_set reactor;
    S.leave root.rx;
    (* Exec = body span minus the root's blocked windows. *)
    if root.timed then
      Obs.Trace.add root.tr Obs.Phase.Exec
        (S.now () -. t_body -. Obs.Trace.get root.tr Obs.Phase.Suspend_wait);
    match res with
    | Ok _ when deadline_expired root ->
      (* Commit entry: nothing is prepared yet, so expiring here just drops
         the read/write sets — no locks to release. *)
      Error (Ab_timeout, "deadline expired before commit", Obs.Abort.Timeout)
    | Ok v when root.rsnapshot <> None ->
      (* Read-only snapshot root: nothing to validate, install or log — the
         result is final the moment the body returns. *)
      Ok v
    | Ok v -> commit db root ex v
    | Error (`Aborted (k, m)) -> Error (k, m, obs_kind_of_class k)
    | Error (`Fatal e) -> (
      match classify_exn e with
      | Some (k, m) -> Error (k, m, obs_kind_of_class k)
      | None ->
        S.fatal db e;
        Error
          (Ab_internal, "internal error: " ^ Printexc.to_string e, Obs.Abort.Internal))
end
