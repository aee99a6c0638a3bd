(** The transaction protocol, written once over two schedulers.

    The reactor call semantics (§2.2–2.3) and the Silo + 2PC commit
    (§3.2) live here; {!Make} instantiates them over a {!SCHED}: the
    simulator's virtual-time cores ({!Database}) or the parallel runtime's
    domains and fibers ([Runtime.Db]). Admission, routing, the migration
    drain, the snapshot-epoch registries and the WAL flushers stay in each
    backend. See DESIGN.md §5.3. *)

include module type of struct
  include Protocol_intf
end

(** The shed of a full request queue, and the refusal of a fenced
    primary. *)
val overloaded : verdict

val fenced_refusal : verdict
val fenced_message : string
val result_of : verdict -> (Util.Value.t, string) result
val make_state : Chaos.t -> state

(** Non-empty buckets in the order "user", "validation",
    "dangerous-structure", "timeout", "overloaded", "internal". Every
    aborted attempt counts in exactly one, so they sum to [aborted]. *)
val aborts_by_reason : state -> (string * int) list

val reset_counts : state -> unit

(** [true], counting one refusal, when the primary is fenced. *)
val refuse_fenced : state -> bool

(** Count a finished attempt and, given a [slot], fold its trace into the
    attached collector. Returns the abort cause. *)
val settle :
  state -> ?slot:int -> participants:int -> retry:int -> readonly:bool ->
  latency_us:float -> Obs.Trace.t -> verdict -> Obs.Abort.cause option

(** Redo records of a transaction's writes; [table_owner] maps a table
    uid to its (reactor, table). *)
val redo_writes :
  (int, string * string) Hashtbl.t -> Occ.Txn.t -> Wal.write list

module Make (S : SCHED) : sig
  type root

  (** [deadline] is on [S.now]'s clock, [infinity] for none. *)
  val make_root :
    S.t -> txn:Occ.Txn.t -> rgen:int -> rsnapshot:int option ->
    deadline:float -> S.rext -> root

  val trace : root -> Obs.Trace.t

  (** Run an admitted root on [ex] — body, implicit synchronization,
      commit — and return its verdict; [t_enq] is when it was enqueued.
      Every sub-transaction has completed and every lock is released when
      it returns. *)
  val execute :
    S.t -> root -> place:S.place -> home:int -> ex:S.exec -> reactor:string ->
    proc:string -> args:Util.Value.t list -> t_enq:float -> verdict
end
