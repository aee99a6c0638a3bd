exception Closed

type 'a t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  mutable inbox : 'a Queue.t;  (* producers append here, under [mu] *)
  mutable batch : 'a Queue.t;  (* consumer-private drained batch *)
  mutable closed : bool;
  mutable waiting : bool;  (* consumer parked in [pop_wait] *)
  capacity : int;  (* admission bound for [try_push]; max_int = unbounded *)
  size : int Atomic.t;  (* messages pushed but not yet popped *)
}

let create ?(capacity = max_int) () =
  {
    mu = Mutex.create ();
    nonempty = Condition.create ();
    inbox = Queue.create ();
    batch = Queue.create ();
    closed = false;
    waiting = false;
    capacity = (if capacity < 1 then 1 else capacity);
    size = Atomic.make 0;
  }

let push t x =
  Mutex.lock t.mu;
  if t.closed then begin
    Mutex.unlock t.mu;
    raise Closed
  end;
  Queue.add x t.inbox;
  Atomic.incr t.size;
  (* Signal only when the consumer is actually parked: a hot mailbox pays
     no condition-variable traffic. *)
  if t.waiting then Condition.signal t.nonempty;
  Mutex.unlock t.mu

let try_push t x =
  (* Cheap rejection before taking the lock: [size] counts every message
     pushed and not yet consumed, so a full mailbox turns producers away
     without touching the mutex the consumer is using. The check-then-add
     is not atomic — a burst of producers can overshoot by at most one
     message each — which is fine for admission control; the bound is a
     shedding threshold, not a memory-safety limit. *)
  if Atomic.get t.size >= t.capacity then false
  else begin
    Mutex.lock t.mu;
    if t.closed then begin
      Mutex.unlock t.mu;
      raise Closed
    end;
    Queue.add x t.inbox;
    Atomic.incr t.size;
    if t.waiting then Condition.signal t.nonempty;
    Mutex.unlock t.mu;
    true
  end

(* Swap the shared inbox for the (empty) private batch under the lock. The
   consumer then owns the old inbox outright. *)
let refill t =
  Mutex.lock t.mu;
  let rec wait () =
    if Queue.is_empty t.inbox && not t.closed then begin
      t.waiting <- true;
      Condition.wait t.nonempty t.mu;
      t.waiting <- false;
      wait ()
    end
  in
  wait ();
  let full = t.inbox in
  t.inbox <- t.batch;
  t.batch <- full;
  Mutex.unlock t.mu

let take_opt t =
  match Queue.take_opt t.batch with
  | Some _ as r ->
    Atomic.decr t.size;
    r
  | None -> None

let pop_wait t =
  if Queue.is_empty t.batch then refill t;
  take_opt t

let try_pop t =
  if Queue.is_empty t.batch then begin
    Mutex.lock t.mu;
    let full = t.inbox in
    t.inbox <- t.batch;
    t.batch <- full;
    Mutex.unlock t.mu
  end;
  take_opt t

let close t =
  Mutex.lock t.mu;
  if not t.closed then begin
    t.closed <- true;
    Condition.broadcast t.nonempty
  end;
  Mutex.unlock t.mu

let length t = Atomic.get t.size
