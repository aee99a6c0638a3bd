(** The reactor programming model (§2).

    A {e reactor} is an application-defined logical actor encapsulating
    relational state. Developers declare {e reactor types} — the schemas a
    reactor of that type encapsulates and the procedures that may be invoked
    on it — and instantiate a {e reactor database} by naming reactors of
    those types. Procedures are OCaml functions (the moral equivalent of the
    paper's pre-compiled C++ stored procedures): within a procedure, the
    {!ctx} gives declarative query access to the {e current} reactor's
    relations only; state on other reactors is reached exclusively through
    asynchronous procedure calls returning {!future}s.

    Semantics guaranteed by any runtime exposing this interface (ReactDB):

    - Top-level invocations are ACID root transactions; nested invocations
      are sub-transactions of the same root — no partial commitment, an
      abort anywhere aborts the root (§2.2.3).
    - A procedure completes only after all sub-transactions it spawned
      complete, so ignoring a future never loses its effects or aborts.
    - Calls by a reactor to itself are inlined synchronously; the dynamic
      safety condition of §2.2.4 aborts transactions in which two distinct
      sub-transactions would be concurrently active on one reactor. *)

(** Result of an asynchronous procedure call. *)
type future = {
  get : unit -> Util.Value.t;
      (** Wait for and return the sub-transaction's result. Re-raises the
          sub-transaction's abort, if any. *)
}

(** Execution context passed to every procedure invocation. *)
type ctx = {
  db : Query.Exec.ctx;  (** queries over the current reactor's relations *)
  self : string;  (** name of the reactor this invocation runs on *)
  call : reactor:string -> proc:string -> args:Util.Value.t list -> future;
      (** [procedure_name(args) on reactor reactor_name] — asynchronous;
          force synchrony by calling [get] immediately. *)
  collect : future list -> Util.Value.t list;
      (** Fork–join barrier over a fan-out of futures: waits for {e every}
          future in the list to complete (out-of-order completion is fine —
          already-resolved futures are consumed without suspending), then
          returns their results in list order. If any sub-transaction
          aborted, the first error in list order is re-raised — but only
          after all siblings have completed, so a collect never unwinds
          while sub-transactions are still mutating callee state. The
          enclosing root's deadline is checked once at the collect
          boundary, after all futures have resolved. *)
}

(** A stored procedure: receives the invocation context and arguments,
    returns a single value ([Value.Null] for void procedures). *)
type proc = ctx -> Util.Value.t list -> Util.Value.t

(** A reactor type: schemas encapsulated by — and procedures invocable on —
    every reactor of this type. [rt_indexes] declares secondary indexes per
    table: (table name, [(index name, column names); ...]).

    [rt_readonly] names procedures declared read-only: the runtime may
    execute them against a frozen snapshot epoch with no read-set tracking,
    no locks, no validation and no two-phase commit — they can never abort
    on a concurrency conflict. A declared-read-only procedure that mutates
    state aborts with [Occ.Txn.Abort]. *)
type rtype = {
  rt_name : string;
  rt_schemas : Storage.Schema.t list;
  rt_indexes : (string * (string * string list) list) list;
  rt_procs : (string * proc) list;
  rt_readonly : string list;
}

val rtype :
  name:string ->
  schemas:Storage.Schema.t list ->
  ?indexes:(string * (string * string list) list) list ->
  procs:(string * proc) list ->
  ?readonly:string list ->
  unit ->
  rtype

(** A reactor database declaration: the reactor types, the named reactors
    (name, type name), and optional per-reactor initial-data loaders applied
    physically at bootstrap (before any transaction runs). *)
type decl = {
  types : rtype list;
  reactors : (string * string) list;
  loaders : (string * (Storage.Catalog.t -> unit)) list;
}

val decl :
  types:rtype list ->
  reactors:(string * string) list ->
  ?loaders:(string * (Storage.Catalog.t -> unit)) list ->
  unit ->
  decl

(** Raise a user-defined abort of the enclosing root transaction. *)
val abort : string -> 'a

(** Raised by the runtime when the dynamic safety condition of §2.2.4 is
    violated (a reactor called while already active in the same root
    transaction). Aborts the root like {!Occ.Txn.Abort} but is classified
    as a structural error, not a user abort. *)
exception Dangerous_call of string

(** [find_type d name] and [type_of_reactor d name] resolve declarations;
    raise [Invalid_argument] on unknown names. *)
val find_type : decl -> string -> rtype

val type_of_reactor : decl -> string -> rtype

(** [find_proc rt name] resolves a procedure; raises [Invalid_argument]. *)
val find_proc : rtype -> string -> proc

(** [proc_readonly rt name] — is [name] declared read-only in [rt]? *)
val proc_readonly : rtype -> string -> bool

(** [validate d] checks the declaration: type names unique, reactor names
    unique, reactor types declared, loader names declared, procedure names
    unique per type, read-only declarations naming real
    procedures. Raises [Invalid_argument]. *)
val validate : decl -> unit

(** {1 Argument helpers for stored-procedure code} *)

val arg_int : Util.Value.t list -> int -> int
val arg_float : Util.Value.t list -> int -> float
val arg_str : Util.Value.t list -> int -> string
val arg : Util.Value.t list -> int -> Util.Value.t
