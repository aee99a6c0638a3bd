(* Timed calls into single layers, on inputs shaped like the workloads.

   Each row reports the median over rounds of nanoseconds per operation,
   plus a [_words] twin: minor words allocated per operation on the calling
   domain. *)

open Pb_common
module V = Util.Value
module Idx = Storage.Table.Idx

let rounds = 5

(* [timed ~ops f] runs [f i] for [i] in [0, ops) once per round. *)
let timed ~ops f =
  let ns = Array.make rounds 0. and words = Array.make rounds 0. in
  for r = 0 to rounds - 1 do
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    for i = 0 to ops - 1 do
      f ((r * ops) + i)
    done;
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    ns.(r) <- (t1 -. t0) /. float_of_int ops;
    words.(r) <- (w1 -. w0) /. float_of_int ops
  done;
  (median ns, median words)

let rows ~ns_name ~words_name (ns, words) =
  [ metric ns_name "ns" ns; metric words_name "words" words ]

(* --- Btree: a tree the size of one TPC-C warehouse's order_line --------- *)

let districts = 10
let orders = 3000
let lines = 10

let ol_key d o l = [| V.Int d; V.Int o; V.Int l |]

let btree rng =
  let t : int Idx.t = Idx.create () in
  for d = 1 to districts do
    for o = 1 to orders do
      for l = 1 to lines do
        ignore (Idx.insert t (ol_key d o l) l)
      done
    done
  done;
  let probes =
    Array.init 4096 (fun _ ->
        ol_key
          (1 + Util.Rng.int rng districts)
          (1 + Util.Rng.int rng orders)
          (1 + Util.Rng.int rng lines))
  in
  let find =
    timed ~ops:100_000 (fun i ->
        ignore (Sys.opaque_identity (Idx.find t probes.(i land 4095))))
  in
  (* New-order shape: each insert appends the next order's lines in a
     random district. *)
  let next_o = Array.make (districts + 1) orders in
  let fresh =
    Array.init (rounds * 2_000) (fun _ ->
        let d = 1 + Util.Rng.int rng districts in
        next_o.(d) <- next_o.(d) + 1;
        Array.init lines (fun l -> ol_key d next_o.(d) (l + 1)))
  in
  let ins_ns, ins_words =
    timed ~ops:2_000 (fun i ->
        Array.iter (fun k -> ignore (Idx.insert t k 0)) fresh.(i))
  in
  (* Stock-level shape: the lines of a district's last 20 orders. *)
  let visited = ref 0 in
  let bounds =
    Array.init 256 (fun _ ->
        let d = 1 + Util.Rng.int rng districts in
        let o = 20 + Util.Rng.int rng (orders - 20) in
        ([| V.Int d; V.Int (o - 19) |], [| V.Int d; V.Int o; V.Int max_int |]))
  in
  let range_ns, range_words =
    timed ~ops:2_000 (fun i ->
        let lo, hi = bounds.(i land 255) in
        Idx.range t ~lo ~hi ~f:(fun _ _ ->
            incr visited;
            true))
  in
  let keys_per_range = float_of_int !visited /. float_of_int (rounds * 2_000) in
  let per_ins = float_of_int lines in
  rows ~ns_name:"btree.find_ns" ~words_name:"btree.find_words" find
  @ rows ~ns_name:"btree.insert_ns" ~words_name:"btree.insert_words"
      (ins_ns /. per_ins, ins_words /. per_ins)
  @ rows ~ns_name:"btree.range_ns_per_key" ~words_name:"btree.range_words_per_key"
      (range_ns /. keys_per_range, range_words /. keys_per_range)

(* --- Storage.Record: version chains of snapshot reads ---------------- *)

let row_of i = [| V.Int i; V.Str (String.make 100 'x') |]

let storage () =
  let open Storage.Record in
  let depth = 4 in
  let r = fresh ~absent:false (row_of 0) in
  for e = 1 to depth do
    let tid = tid_make ~epoch:e ~seq:1 in
    retire r ~new_tid:tid;
    r.data <- row_of e;
    r.tid <- tid
  done;
  let read =
    timed ~ops:200_000 (fun i ->
        ignore (Sys.opaque_identity (snapshot_read r ~snapshot:(1 + (i mod depth)))))
  in
  (* The install path of an update with snapshots on: retire the current
     version, install the new one, trim to a horizon one epoch back. *)
  let w = fresh ~absent:false (row_of 0) in
  let data = row_of 1 in
  let retire_trim =
    timed ~ops:200_000 (fun i ->
        let tid = tid_make ~epoch:(i + 2) ~seq:1 in
        retire w ~new_tid:tid;
        w.data <- data;
        w.tid <- tid;
        trim w ~horizon:(i + 1))
  in
  rows ~ns_name:"storage.snapshot_read_ns" ~words_name:"storage.snapshot_read_words" read
  @ rows ~ns_name:"storage.retire_trim_ns" ~words_name:"storage.retire_trim_words"
      retire_trim

(* --- Occ: transaction bookkeeping and the commit protocol -------------- *)

let schema =
  Storage.Schema.make ~name:"kv"
    ~columns:[ ("k", V.TInt); ("v", V.TStr) ]
    ~key:[ "k" ]

let n_records = 4096

let occ rng =
  let table = Storage.Table.create schema in
  let recs =
    Array.init n_records (fun i ->
        let r = Storage.Record.fresh ~absent:false (row_of i) in
        ignore (Storage.Table.insert table r);
        r)
  in
  let keys = Array.init n_records (fun i -> [| V.Int i |]) in
  let picks = Array.init 8192 (fun _ -> Util.Rng.int rng n_records) in
  let data = row_of 7 in
  let next_id = ref 0 in
  (* Payment-like bookkeeping: 10 reads and 5 buffered writes. *)
  let rw =
    timed ~ops:50_000 (fun i ->
        incr next_id;
        let txn = Occ.Txn.create ~id:!next_id in
        for j = 0 to 9 do
          let k = picks.((i * 10 + j) land 8191) in
          ignore (Occ.Txn.read txn ~container:0 recs.(k));
          if j < 5 then
            Occ.Txn.write txn ~container:0 ~table ~key:keys.(k) recs.(k) data
        done)
  in
  (* YCSB multi_update shape: read-modify-write of 10 distinct records,
     then prepare, TID and install with version chains on. Only the commit
     steps are timed. *)
  let ops = 20_000 in
  let ns = Array.make rounds 0. and words = Array.make rounds 0. in
  for r = 0 to rounds - 1 do
    let t = ref 0. and w = ref 0. in
    for i = 0 to ops - 1 do
      incr next_id;
      let txn = Occ.Txn.create ~id:!next_id in
      let base = Util.Rng.int rng n_records in
      for j = 0 to 9 do
        let k = (base + (j * 397)) mod n_records in
        ignore (Occ.Txn.read txn ~container:0 recs.(k));
        Occ.Txn.write txn ~container:0 ~table ~key:keys.(k) recs.(k) data
      done;
      let epoch = 2 + (((r * ops) + i) / 64) in
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      (match Occ.Commit.prepare txn ~container:0 with
      | Ok () ->
        let tid = Occ.Commit.compute_tid txn ~epoch in
        Occ.Commit.install ~horizon:(epoch - 1) txn ~container:0 ~tid
      | Error _ -> failwith "perfbench: uncontended prepare failed");
      t := !t +. (now_ns () -. t0);
      w := !w +. (Gc.minor_words () -. w0)
    done;
    ns.(r) <- !t /. float_of_int ops;
    words.(r) <- !w /. float_of_int ops
  done;
  rows ~ns_name:"occ.txn_rw_ns" ~words_name:"occ.txn_rw_words" rw
  @ rows ~ns_name:"occ.prepare_install_ns" ~words_name:"occ.prepare_install_words"
      (median ns, median words)

(* --- Wal: encoding one YCSB 10-row redo entry ------------------------ *)

let wal () =
  let catalogs = Faultsim.fresh_catalogs (Workloads.Ycsb.decl ~keys:10 ()) in
  let writes =
    List.concat_map
      (fun (reactor, table, rows) ->
        List.map (fun row -> Wal.Put { reactor; table; row }) rows)
      (Faultsim.snapshot catalogs)
  in
  let entry = { Wal.le_txn = 1; le_tid = Storage.Record.tid_make ~epoch:9 ~seq:3;
                le_writes = writes } in
  let bytes = String.length (Wal.encode_framed entry) + 1 in
  let ns, words =
    timed ~ops:100 (fun _ -> ignore (Sys.opaque_identity (Wal.encode_framed entry)))
  in
  rows ~ns_name:"wal.encode_ns_per_entry" ~words_name:"wal.encode_words_per_entry"
    (ns, words)
  @ [ metric "wal.bytes_per_entry" "bytes" (float_of_int bytes) ]

(* --- Runtime.Mailbox: one cross-domain hop --------------------------- *)

let mailbox () =
  let module M = Runtime.Mailbox in
  let ping = M.create () and pong = M.create () in
  let echo =
    Domain.spawn (fun () ->
        let rec loop () =
          match M.pop_wait ping with
          | Some x ->
            M.push pong x;
            loop ()
          | None -> ()
        in
        loop ())
  in
  let ns, words =
    timed ~ops:2_000 (fun i ->
        M.push ping i;
        ignore (M.pop_wait pong))
  in
  M.close ping;
  Domain.join echo;
  (* a round trip is two hops *)
  rows ~ns_name:"mailbox.hop_ns" ~words_name:"mailbox.hop_words" (ns /. 2., words /. 2.)

(* --- Sim.Engine: one scheduled event --------------------------------- *)

let sim () =
  let per_round = 200_000 in
  let ns = Array.make rounds 0. and words = Array.make rounds 0. in
  for r = 0 to rounds - 1 do
    let e = Sim.Engine.create () in
    for _ = 1 to 16 do
      Sim.Engine.spawn e (fun () ->
          for _ = 1 to per_round / 16 do
            Sim.Engine.delay 1.
          done)
    done;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    ignore (Sim.Engine.run e);
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    let n = float_of_int (Sim.Engine.events_executed e) in
    ns.(r) <- (t1 -. t0) /. n;
    words.(r) <- (w1 -. w0) /. n
  done;
  rows ~ns_name:"sim.event_ns" ~words_name:"sim.event_words" (median ns, median words)

let all ~seed =
  let rng = Util.Rng.create (seed lxor 0x5eed) in
  let btree = btree rng in
  let occ = occ rng in
  btree @ storage () @ occ @ wal () @ mailbox () @ sim ()
