(** YCSB with multi-key update transactions (Appendix C).

    Each key is modeled as a reactor holding a single 100-byte record. The
    [multi_update] transaction performs a read-modify-write on 10 keys: the
    paper invokes one update sub-transaction per key asynchronously, with
    the keys sorted so that remotely-deployed keys precede the local ones
    (keeping the transaction fork–join for the cost-model fit). Key choice
    is zipfian; the transaction's root reactor is one of the chosen keys. *)

open Util
open Reactor

let s_usertable =
  Storage.Schema.make ~name:"usertable"
    ~columns:[ ("ycsb_key", Value.TInt); ("field0", Value.TStr) ]
    ~key:[ "ycsb_key" ]

let read_proc ctx _args =
  match Query.Exec.get ctx.db "usertable" [| Wl.vi 0 |] with
  | Some row -> row.(1)
  | None -> abort "missing usertable row"

(* Read-modify-write: the read goes through the transaction context, so
   repeated updates of one key inside a transaction hit the write set. *)
let update_proc ctx args =
  let v = arg_str args 0 in
  let ok =
    Query.Exec.update_key ctx.db "usertable" [| Wl.vi 0 |] ~set:(fun row ->
        Query.Exec.seti row 1 (Wl.vs v))
  in
  if not ok then abort "missing usertable row";
  Value.Null

(* multi_update(value, keys...): invoked on one of the keys; updates each
   key, asynchronously for other reactors, inline for itself. *)
let multi_update ctx args =
  match args with
  | v :: keys ->
    List.iter
      (fun key ->
        ignore (ctx.call ~reactor:(Value.to_str key) ~proc:"update" ~args:[ v ]))
      keys;
    (* Own key last (the generator sorts it last): inlined. *)
    ignore (ctx.call ~reactor:ctx.self ~proc:"update" ~args:[ v ]);
    Value.Null
  | [] -> abort "multi_update: missing value"

(* multi_read(keys...): invoked on one of the keys; reads every key and
   returns the concatenated field lengths (a cheap digest the caller can
   compare across formulations). [fan_out] selects the sequential
   read-then-sync-per-key formulation or the parallel fan-out joined at a
   collect barrier; own key is read inline either way. *)
let multi_read ~fan_out ctx args =
  let own = Value.to_str (read_proc ctx []) in
  let remote_reads =
    if fan_out then
      ctx.collect
        (List.map
           (fun key ->
             ctx.call ~reactor:(Value.to_str key) ~proc:"read" ~args:[])
           args)
    else
      List.map
        (fun key ->
          (ctx.call ~reactor:(Value.to_str key) ~proc:"read" ~args:[]).get ())
        args
  in
  let total =
    List.fold_left
      (fun acc v -> acc + String.length (Value.to_str v))
      (String.length own) remote_reads
  in
  Wl.vi total

let key_type =
  rtype ~name:"YcsbKey" ~schemas:[ s_usertable ]
    ~procs:
      [ ("read", read_proc); ("update", update_proc);
        ("multi_update", multi_update);
        ("multi_read_seq", multi_read ~fan_out:false);
        ("multi_read_par", multi_read ~fan_out:true) ]
    ~readonly:[ "read"; "multi_read_seq"; "multi_read_par" ]
    ()

let key_name i = Printf.sprintf "k%d" i
let keys n = List.init n key_name

(** [decl ~keys:n ()] — one reactor per key, each loaded with a 100-byte
    record. *)
let decl ~keys:n () =
  let payload = String.make 100 'x' in
  let loader _k catalog =
    Wl.load catalog "usertable" [| Wl.vi 0; Wl.vs payload |]
  in
  Reactor.decl ~types:[ key_type ]
    ~reactors:(List.map (fun k -> (k, "YcsbKey")) (keys n))
    ~loaders:(List.map (fun k -> (k, loader k)) (keys n))
    ()

type params = {
  n_keys : int;
  txn_keys : int;  (** keys per multi_update (10 in the paper) *)
  zipf : Rng.Zipf.gen;
}

let params ?(txn_keys = 10) ~theta n_keys =
  { n_keys; txn_keys; zipf = Rng.Zipf.create ~n:n_keys ~theta }

(** Generate a multi_update request. [container_of] lets the generator sort
    remote keys before local ones relative to the root reactor (App. C). *)
let gen_multi_update rng p ~container_of =
  (* Draw [txn_keys] zipfian keys with duplicates, then collapse: under
     extreme skew the transaction accesses a single reactor (App. C notes
     exactly this at zipf 5.0, where repeated read-modify-writes hit the
     transaction's own write set). *)
  let distinct = Hashtbl.create 16 in
  for _ = 1 to p.txn_keys do
    Hashtbl.replace distinct (Rng.Zipf.next rng p.zipf) ()
  done;
  let ks = Hashtbl.fold (fun k () acc -> k :: acc) distinct [] in
  let ks = List.sort Int.compare ks in
  (* Root reactor: uniformly one of the chosen keys. *)
  let root = key_name (List.nth ks (Rng.int rng (List.length ks))) in
  let home = container_of root in
  let others = List.filter (fun k -> key_name k <> root) ks in
  let remote, local =
    List.partition (fun k -> container_of (key_name k) <> home) others
  in
  let ordered = remote @ local in
  Wl.request root "multi_update"
    (Wl.vs (String.make 100 'y') :: List.map (fun k -> Wl.vs (key_name k)) ordered)

(** Generate a multi-key read request morphed by the deployment: same key
    selection and remote-first ordering as {!gen_multi_update}, dispatched
    to [multi_read_seq] or [multi_read_par] according to [config]'s
    {!Reactdb.Config.morph} knob. *)
let gen_multi_read rng p config ~container_of =
  let distinct = Hashtbl.create 16 in
  for _ = 1 to p.txn_keys do
    Hashtbl.replace distinct (Rng.Zipf.next rng p.zipf) ()
  done;
  let ks = Hashtbl.fold (fun k () acc -> k :: acc) distinct [] in
  let ks = List.sort Int.compare ks in
  let root = key_name (List.nth ks (Rng.int rng (List.length ks))) in
  let home = container_of root in
  let others = List.filter (fun k -> key_name k <> root) ks in
  let remote, local =
    List.partition (fun k -> container_of (key_name k) <> home) others
  in
  let proc =
    match config.Reactdb.Config.morph with
    | Reactdb.Config.Sequential -> "multi_read_seq"
    | Reactdb.Config.Parallel -> "multi_read_par"
  in
  Wl.request root proc (List.map (fun k -> Wl.vs (key_name k)) (remote @ local))
