(** YCSB with multi-key update transactions (Appendix C): each key is a
    reactor holding one 100-byte record; [multi_update] read-modify-writes
    a zipfian set of keys, asynchronously for keys on other containers. *)

(** The key reactor type. Procedures: [read], [update], [multi_update],
    [multi_read_seq] (read each key, synchronizing before the next),
    [multi_read_par] (fan every read out, join at a collect barrier —
    both return the total payload length across the keys read).

    The three read procedures are declared read-only (abort-free snapshot
    execution on backends with snapshots enabled). The deployment's
    {!Reactdb.Config.morph} selects between [multi_read_seq] and
    [multi_read_par]. *)
val key_type : Reactor.rtype

val key_name : int -> string
val keys : int -> string list

(** [decl ~keys:n ()] — one loaded reactor per key. *)
val decl : keys:int -> unit -> Reactor.decl

type params = {
  n_keys : int;
  txn_keys : int;  (** zipfian draws per multi_update (10 in the paper) *)
  zipf : Util.Rng.Zipf.gen;
}

val params : ?txn_keys:int -> theta:float -> int -> params

(** Generate a multi_update request: [txn_keys] zipfian draws collapsed to
    their distinct set (under extreme skew a single reactor is accessed,
    as App. C notes); the root reactor is one of the keys, and remote keys
    are ordered before local ones relative to it — [container_of] supplies
    the placement. *)
val gen_multi_update :
  Util.Rng.t -> params -> container_of:(string -> int) -> Wl.request

(** Generate a multi-key read with the same key selection as
    {!gen_multi_update}, morphed by the deployment's
    {!Reactdb.Config.morph} knob: [multi_read_seq] on [Sequential]
    deployments, [multi_read_par] on [Parallel] ones. *)
val gen_multi_read :
  Util.Rng.t ->
  params -> Reactdb.Config.t -> container_of:(string -> int) -> Wl.request
