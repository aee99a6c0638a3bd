(** Multi-producer/single-consumer mailbox for the parallel runtime.

    Producers on any domain [push]; the owning domain consumes with
    {!pop_wait} (blocking) or {!try_pop}. Built on [Mutex]/[Condition] with
    two-queue batching: the consumer swaps the shared inbox for a private
    queue under the lock, then drains it lock-free, so a busy mailbox costs
    roughly one lock acquisition per batch rather than per message.

    Ordering guarantee: messages from one producer are delivered in the
    order that producer pushed them (per-producer FIFO); messages from
    different producers interleave in lock-acquisition order.

    Shutdown: {!close} stops further pushes (they raise {!Closed}) but lets
    the consumer drain everything already enqueued; [pop_wait] returns
    [None] only once the mailbox is both closed and empty. *)

(** A mailbox carrying messages of type ['a]. *)
type 'a t

(** Raised by {!push} after {!close}. *)
exception Closed

(** A fresh, open, empty mailbox. [capacity] (default unbounded, clamped to
    at least 1) bounds admission through {!try_push} only. *)
val create : ?capacity:int -> unit -> 'a t

(** [push t x] enqueues [x] unconditionally, ignoring [capacity]. The
    runtime uses this for control traffic — resumptions, 2PC votes,
    forwarded roots — which must never be shed: dropping it would wedge an
    in-flight transaction rather than refuse a new one. Thread-safe.
    @raise Closed after {!close}. *)
val push : 'a t -> 'a -> unit

(** [try_push t x] enqueues [x] if fewer than [capacity] messages are
    pending, else returns [false] (the overload signal — callers shed the
    work at admission). Under concurrent producers the bound may overshoot
    by at most one message per producer. Thread-safe.
    @raise Closed after {!close}. *)
val try_push : 'a t -> 'a -> bool

(** [pop_wait t] dequeues the next message, blocking while the mailbox is
    empty and open; [None] once closed and drained. Single consumer only. *)
val pop_wait : 'a t -> 'a option

(** [try_pop t] dequeues without blocking; [None] if nothing is ready. *)
val try_pop : 'a t -> 'a option

(** [close t] rejects subsequent pushes and wakes the consumer. Idempotent. *)
val close : 'a t -> unit

(** Messages pushed but not yet popped (racy snapshot, lock-free). *)
val length : 'a t -> int
