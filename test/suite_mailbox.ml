(* Unit and property tests for the parallel runtime's MPSC mailbox, with
   real producer domains. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* [n_producers] domains each push (pid, 0), (pid, 1), ... (pid, per - 1);
   the main thread consumes exactly [n_producers * per] messages. Checks no
   message is lost or duplicated and each producer's messages arrive in
   push order. *)
let fifo_run ~n_producers ~per =
  let mb = Runtime.Mailbox.create () in
  let producers =
    Array.init n_producers (fun pid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              Runtime.Mailbox.push mb (pid, i)
            done))
  in
  let next = Array.make n_producers 0 in
  let ok = ref true in
  for _ = 1 to n_producers * per do
    match Runtime.Mailbox.pop_wait mb with
    | None -> ok := false
    | Some (pid, i) ->
      if i <> next.(pid) then ok := false;
      next.(pid) <- i + 1
  done;
  Array.iter Domain.join producers;
  !ok && Array.for_all (fun n -> n = per) next

let test_fifo_four_producers () =
  check_bool "per-producer FIFO, none lost or duplicated" true
    (fifo_run ~n_producers:4 ~per:2000)

let test_single_producer_order () =
  check_bool "single producer is globally FIFO" true
    (fifo_run ~n_producers:1 ~per:5000)

let test_drain_after_close () =
  let mb = Runtime.Mailbox.create () in
  for i = 0 to 99 do
    Runtime.Mailbox.push mb i
  done;
  Runtime.Mailbox.close mb;
  (* close lets the consumer drain everything already queued *)
  for i = 0 to 99 do
    match Runtime.Mailbox.pop_wait mb with
    | Some v -> check_int "drained in order" i v
    | None -> Alcotest.fail "mailbox empty before drain finished"
  done;
  check_bool "closed and drained" true (Runtime.Mailbox.pop_wait mb = None);
  check_bool "stays drained" true (Runtime.Mailbox.pop_wait mb = None)

let test_push_after_close () =
  let mb = Runtime.Mailbox.create () in
  Runtime.Mailbox.push mb 1;
  Runtime.Mailbox.close mb;
  Runtime.Mailbox.close mb (* idempotent *);
  Alcotest.check_raises "push after close" Runtime.Mailbox.Closed (fun () ->
      Runtime.Mailbox.push mb 2)

let test_try_pop () =
  let mb = Runtime.Mailbox.create () in
  check_bool "empty try_pop" true (Runtime.Mailbox.try_pop mb = None);
  Runtime.Mailbox.push mb 7;
  check_bool "nonempty try_pop" true (Runtime.Mailbox.try_pop mb = Some 7);
  check_bool "drained again" true (Runtime.Mailbox.try_pop mb = None)

let test_blocking_wakeup () =
  let mb = Runtime.Mailbox.create () in
  let producer =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Runtime.Mailbox.push mb 42)
  in
  (* consumer parks in pop_wait until the producer's push wakes it *)
  check_bool "woken by push" true (Runtime.Mailbox.pop_wait mb = Some 42);
  Domain.join producer

(* --- bounded capacity / admission control --- *)

let test_capacity_basics () =
  let mb = Runtime.Mailbox.create ~capacity:2 () in
  check_bool "accepts below cap" true (Runtime.Mailbox.try_push mb 1);
  check_bool "accepts at cap-1" true (Runtime.Mailbox.try_push mb 2);
  check_bool "refuses at cap" false (Runtime.Mailbox.try_push mb 3);
  (* unconditional push bypasses the cap: internal runtime traffic must
     never be shed *)
  Runtime.Mailbox.push mb 4;
  check_int "length counts both paths" 3 (Runtime.Mailbox.length mb);
  check_bool "still refusing" false (Runtime.Mailbox.try_push mb 5);
  (* drain one; admission opens again *)
  check_bool "drained 1" true (Runtime.Mailbox.pop_wait mb = Some 1);
  check_bool "drained 2" true (Runtime.Mailbox.pop_wait mb = Some 2);
  check_bool "accepts after drain" true (Runtime.Mailbox.try_push mb 6);
  check_bool "order kept" true (Runtime.Mailbox.pop_wait mb = Some 4);
  check_bool "order kept 2" true (Runtime.Mailbox.pop_wait mb = Some 6)

(* Four real producer domains hammer try_push against a small cap while a
   consumer drains slowly: some pushes must be refused, every accepted
   message must be delivered exactly once, and once the consumer fully
   drains, admission must open again. *)
let test_capacity_four_producers () =
  let cap = 8 and n_producers = 4 and per = 500 in
  let mb = Runtime.Mailbox.create ~capacity:cap () in
  let accepted = Atomic.make 0 and refused = Atomic.make 0 in
  let producers =
    Array.init n_producers (fun pid ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              if Runtime.Mailbox.try_push mb (pid, i) then
                Atomic.incr accepted
              else Atomic.incr refused
            done))
  in
  let received = ref 0 in
  (* slow consumer: sleep between pops so the producers saturate the cap *)
  let rec drain_slow n =
    if n > 0 then begin
      Unix.sleepf 0.0002;
      (match Runtime.Mailbox.try_pop mb with
      | Some _ -> incr received
      | None -> ());
      drain_slow (n - 1)
    end
  in
  drain_slow 50;
  Array.iter Domain.join producers;
  (* producers done; drain the remainder *)
  let rec drain_rest () =
    match Runtime.Mailbox.try_pop mb with
    | Some _ ->
      incr received;
      drain_rest ()
    | None -> ()
  in
  drain_rest ();
  check_bool "some pushes refused under saturation" true
    (Atomic.get refused > 0);
  check_int "every accepted message delivered exactly once"
    (Atomic.get accepted) !received;
  check_int "accepted + refused = offered"
    (n_producers * per)
    (Atomic.get accepted + Atomic.get refused);
  (* fully drained: admission is open again *)
  check_bool "accepts after full drain" true (Runtime.Mailbox.try_push mb (0, 0))

let prop_no_loss =
  QCheck.Test.make ~name:"mailbox: no loss/dup, per-producer FIFO" ~count:15
    QCheck.(pair (int_range 1 4) (int_range 0 200))
    (fun (n_producers, per) -> fifo_run ~n_producers ~per)

(* Sequential model property: a mailbox is a pair of queues — the shared
   inbox and the consumer's private batch. try_push appends to the inbox if
   under capacity; try_pop moves the whole inbox behind the batch when the
   batch is empty, then pops the batch head. The real mailbox must agree
   with this model on every op's result and on its length. *)
let prop_queue_model =
  QCheck.Test.make
    ~name:"mailbox: push/pop agree with the two-queue model" ~count:500
    QCheck.(pair (int_range 1 6) (small_list (int_range 0 1)))
    (fun (cap, ops) ->
      let mb = Runtime.Mailbox.create ~capacity:cap () in
      let batch = ref [] and inbox = ref [] and next = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | 0 ->
            let v = !next in
            incr next;
            let fits = List.length !batch + List.length !inbox < cap in
            if fits then inbox := !inbox @ [ v ];
            Runtime.Mailbox.try_push mb v = fits
          | _ ->
            (if !batch = [] then begin
               batch := !inbox;
               inbox := []
             end);
            let expect =
              match !batch with
              | [] -> None
              | h :: tl ->
                batch := tl;
                Some h
            in
            Runtime.Mailbox.try_pop mb = expect
            && Runtime.Mailbox.length mb
               = List.length !batch + List.length !inbox)
        ops)

let suite =
  ( "mailbox",
    [
      Alcotest.test_case "four producer domains FIFO" `Quick
        test_fifo_four_producers;
      Alcotest.test_case "single producer order" `Quick
        test_single_producer_order;
      Alcotest.test_case "drain after close" `Quick test_drain_after_close;
      Alcotest.test_case "push after close raises" `Quick test_push_after_close;
      Alcotest.test_case "try_pop" `Quick test_try_pop;
      Alcotest.test_case "capacity basics" `Quick test_capacity_basics;
      Alcotest.test_case "capacity under four producer domains" `Quick
        test_capacity_four_producers;
      Alcotest.test_case "blocking wakeup" `Quick test_blocking_wakeup;
      QCheck_alcotest.to_alcotest prop_no_loss;
      QCheck_alcotest.to_alcotest prop_queue_model;
    ] )
