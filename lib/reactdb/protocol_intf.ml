(* The types [Protocol] shares with its two backends, written once for
   protocol.ml and protocol.mli. *)

(** Typed abort classes, by exception constructor, never by message text.
    [Ab_validation] is commit-time (OCC validation or a 2PC vote),
    [Ab_conflict] an execution-time duplicate-key race; both count in the
    "validation" bucket. *)
type abort_class =
  | Ab_user
  | Ab_conflict
  | Ab_validation
  | Ab_dangerous
  | Ab_timeout
  | Ab_overload
  | Ab_internal

(** A finished root: its result, or its class, message and [Obs] kind. *)
type verdict = (Util.Value.t, abort_class * string * Obs.Abort.kind) result

(** State both backends keep the same way. Counters are atomics, so the
    runtime's domains update them without locks. *)
type state = {
  mutable obs : Obs.Collector.t option;
      (** on the runtime, slot [c] is only written by container [c]'s
          domain, so recording needs no locks *)
  mutable chaos : Chaos.t;
  committed : int Atomic.t;
  aborted : int Atomic.t;
  ro_commits : int Atomic.t;
  buckets : int Atomic.t array;  (** indexed like [aborts_by_reason] *)
  generation : int Atomic.t;
  fenced : bool Atomic.t;
      (** set by a promotion or the [Kill_primary] probe: every admission
          is refused and an in-flight 2PC rolls back (DESIGN.md §12.4) *)
  n_fenced : int Atomic.t;  (** admissions refused while fenced *)
}

(** Work the simulator charges as virtual time; the runtime ignores it. *)
type cost =
  | Arrive of int * int  (** a shipped sub-call starts: (from, to) container *)
  | Commit_msg of int * int  (** coordinator → participant container *)
  | Commit_step  (** a commit step starts on the participant *)
  | Validate of Occ.Txn.t * int  (** Silo validation on one container *)
  | Install  (** one participant's install; the empty commit *)

(** One invocation's frame as its scheduler opens it: the scheduler's
    per-frame state, the data-access and work charges the invocation's
    queries make, and what runs when its body returns. *)
type 'fx frame_hooks = {
  fx : 'fx;
  charge_data : Query.Exec.charge_kind -> int -> unit;
  charge_work : float -> unit;
  exit : unit -> unit;
}

(** What the protocol needs from a scheduler. DESIGN.md §5.3 tabulates
    what each entry does on the simulator and on the runtime. *)
module type SCHED = sig
  (** The database; an executor (a simulated core, or a domain); a
      reactor's placement; per-root, per-invocation and per-commit state. *)
  type t

  type exec
  type place
  type rext
  type fext
  type pending
  type 'a ivar

  val state : t -> state

  (** µs, virtual or wall-clock; [timed tr]: whether a root reads it at
      phase boundaries (on the runtime, only while tracing). *)
  val now : unit -> float

  val timed : Obs.Trace.t -> bool
  val container : exec -> int
  val place : t -> string -> place
  val entry : place -> Bootstrap.entry

  (** The home of a placement once a root of generation [rgen] may use
      it, parking at a migrating reactor's stub with [exec] released. *)
  val gate : t -> rext -> exec -> rgen:int -> place -> int

  val sub_exec : t -> rext -> place -> exec
  val participant : t -> rext -> int -> exec
  val spawn : exec -> (unit -> 'a) -> 'a ivar
  val peek : 'a ivar -> 'a option
  val await : exec -> 'a ivar -> 'a
  val enter : rext -> unit
  val leave : rext -> unit

  (** Costs: commit-path work; opening an invocation's frame; shipping a
      sub-call (returning its ordinal in the root); resuming after call
      [sfid] blocked [blocked] µs. *)
  val charge : t -> cost -> unit

  val frame_enter :
    t -> rext -> place -> home:int -> exec -> on_root_path:bool ->
    fext frame_hooks

  val send : t -> fext -> src:int -> place -> int
  val resumed : t -> fext -> sfid:int -> blocked:float -> unit

  val stall : t -> Chaos.kind -> unit

  (** A non-abort exception: re-raised on the simulator, recorded on the
      runtime (the attempt then aborts as "internal"). *)
  val fatal : t -> exn -> unit

  val horizon : t -> int option

  (** [commit_begin] yields the commit epoch, [log_ahead] appends the redo
      record with every participant's locks held, [commit_end] gets the
      TID on success and may return a group-commit flush to await. *)
  val commit_begin : t -> Occ.Txn.t -> int * pending

  val log_ahead : t -> rext -> Occ.Txn.t -> tid:int -> (unit, string) result

  val commit_end :
    t -> Occ.Txn.t -> epoch:int -> pending -> tid:int option ->
    unit ivar option
end
