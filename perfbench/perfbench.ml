(* The repository benchmark: one workload per invocation.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]

   With --trace 0 it prints the end-to-end metrics of an untraced run; with
   --trace 1 the per-layer metrics: phase means from a second, traced run
   (an Obs.Collector attached through the public API), counters from the
   untraced run, and timed calls into single layers. The last line of
   standard output is the result object; the line before it is the stamp.
   The exit status is non-zero when an audit fails. *)

open Pb_common
module R = Pb_runs

let workloads = [ "tpcc"; "ycsb_2pc"; "ycsb_durable"; "smallbank_sim" ]

(* Set-ups per end-to-end run; setup_s is their median. *)
let setups = 3

(* --- per-layer rows ------------------------------------------------------ *)

let phase_rows (rp : Obs.Report.t) =
  let row name =
    List.find_opt (fun p -> p.Obs.Report.pr_phase = name) rp.Obs.Report.r_phases
  in
  let mean name = Option.fold ~none:0. ~some:(fun p -> p.Obs.Report.pr_mean_us) (row name) in
  let p99 name = Option.fold ~none:0. ~some:(fun p -> p.Obs.Report.pr_p99_us) (row name) in
  let parts, n =
    List.fold_left
      (fun (s, n) (p, c) -> (s + (p * c), n + c))
      (0, 0) rp.Obs.Report.r_participants
  in
  [ metric "runtime.queue_wait_us" "us" (mean "queue_wait");
    metric "runtime.queue_wait_p99_us" "us" (p99 "queue_wait");
    metric "runtime.suspend_wait_us" "us" (mean "suspend_wait");
    metric "query.exec_us" "us" (mean "exec");
    metric "query.exec_p99_us" "us" (p99 "exec");
    metric "occ.validation_us" "us" (mean "validation");
    metric "occ.commit_us" "us" (mean "commit");
    metric "wal.flush_wait_us" "us" (mean "flush_wait");
    metric "obs.residual_us" "us" (mean "overhead");
    metric "runtime.participants_mean" "count" (ratio (float_of_int parts) (float_of_int n)) ]

(* Tracing overhead as lost throughput per CPU second: the traced run's
   CPU cost per transaction against the untraced run's. Wall throughput
   would mostly measure what the host took away during each run. *)
let overhead_row ~untraced_cpu_us ~traced_cpu_us =
  metric "obs.trace_overhead_pct" "%" (100. *. (1. -. ratio untraced_cpu_us traced_cpu_us))

(* Attempt shares: system aborts (every kind but user) and user aborts,
   over engine totals. *)
let share_rows ~committed ~aborted ~by_reason =
  let att = float_of_int (committed + aborted) in
  let user = float_of_int (R.count_of "user" by_reason) in
  [ metric "fail_pct" "%" (pct (float_of_int aborted -. user) att);
    metric "app.user_abort_pct" "%" (pct user att) ]

(* Abort shares by Obs kind. Lock-busy and stale-read are the two
   validation failures the 2PC window produces; the other validation-type
   kinds are pooled as conflicts. *)
let abort_rows ~attempts kinds =
  let n k = float_of_int (R.count_of k kinds) in
  let a = float_of_int attempts in
  [ metric "occ.lock_busy_pct" "%" (pct (n "lock-busy") a);
    metric "occ.stale_read_pct" "%" (pct (n "stale-read") a);
    metric "occ.conflict_pct" "%" (pct (n "conflict" +. n "node-changed" +. n "key-exists") a) ]

let busy_rows utils =
  let n = float_of_int (max 1 (Array.length utils)) in
  let mean = Array.fold_left ( +. ) 0. utils /. n in
  let top = Array.fold_left Float.max 0. utils in
  [ metric "runtime.busy_frac" "fraction" mean;
    metric "runtime.busy_skew" "ratio" (ratio top mean) ]

let wall_rows ~tput ~p50 ~p99 =
  [ metric "tput_tps" "1/s" tput; metric "p50_us" "us" p50; metric "p99_us" "us" p99 ]

let failed_ops ~generated ~committed ~by_reason =
  generated - committed - R.count_of "user" by_reason

(* --- runtime workloads ------------------------------------------------ *)

(* The measured run comes first, so the extra set-ups after it cannot
   raise the heap it reports. *)
let rt_end_to_end w ~seed ~seconds =
  let r = R.run_rt w ~seed ~seconds ~traced:false in
  let later =
    List.init (setups - 1) (fun _ ->
        Gc.full_major ();
        R.setup_only w)
  in
  { correct = r.R.failures = [];
    attempted = r.R.generated;
    failed = failed_ops ~generated:r.R.generated ~committed:r.R.committed ~by_reason:r.R.by_reason;
    failures = r.R.failures;
    metrics =
      [ metric "cpu_us_per_txn" "us" (R.cpu_us_per_txn r);
        metric "setup_s" "s" (median (Array.of_list (r.R.setup_s :: later)));
        metric "peak_heap_mb" "MB" r.R.heap_mb ] }

let merge_kinds loads =
  List.fold_left
    (fun acc l ->
      List.fold_left
        (fun acc (k, c) -> (k, c + R.count_of k acc) :: List.remove_assoc k acc)
        acc l.R.RDb.Load.aborts_by_reason)
    [] loads

let mean_utils loads =
  let n = float_of_int (List.length loads) in
  Array.init (Array.length (List.hd loads).R.RDb.Load.utilizations) (fun d ->
      List.fold_left (fun a l -> a +. l.R.RDb.Load.utilizations.(d)) 0. loads /. n)

let rt_per_layer w ~seed ~seconds =
  let u = R.run_rt w ~seed ~seconds ~traced:false in
  Gc.full_major ();
  let t = R.run_rt w ~seed ~seconds ~traced:true in
  let loads = R.loads u in
  let attempts =
    List.fold_left (fun a l -> a + l.R.RDb.Load.committed + l.R.RDb.Load.aborted) 0 loads
  in
  let bytes, entries, flushes, flush_us = Option.value ~default:(0., 0, 0, 0.) u.R.wal in
  let metrics =
    wall_rows ~tput:(R.tput u) ~p50:(R.p50_us u) ~p99:(R.p99_us u)
    @ phase_rows (Option.get t.R.report)
    @ [ overhead_row ~untraced_cpu_us:(R.cpu_us_per_txn u) ~traced_cpu_us:(R.cpu_us_per_txn t) ]
    @ share_rows ~committed:u.R.committed ~aborted:u.R.aborted ~by_reason:u.R.by_reason
    @ abort_rows ~attempts (merge_kinds loads)
    @ busy_rows (mean_utils loads)
    @ [ metric "wal.bytes_per_commit" "bytes" (ratio bytes (float_of_int u.R.committed));
        metric "wal.commits_per_flush" "count"
          (ratio (float_of_int entries) (float_of_int flushes));
        metric "wal.flush_us" "us" (ratio flush_us (float_of_int flushes)) ]
    @ u.R.gc_metrics
    @ [ metric "sim.events_per_txn" "count" 0.; metric "sim.ns_per_event" "ns" 0.;
        metric "reactdb.virtual_p50_us" "us" 0.; metric "reactdb.virtual_p99_us" "us" 0. ]
  in
  let failures = u.R.failures @ t.R.failures in
  { correct = failures = [];
    attempted = u.R.generated + t.R.generated;
    failed =
      failed_ops ~generated:u.R.generated ~committed:u.R.committed ~by_reason:u.R.by_reason
      + failed_ops ~generated:t.R.generated ~committed:t.R.committed ~by_reason:t.R.by_reason;
    failures;
    metrics }

(* --- smallbank_sim ---------------------------------------------------- *)

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let sumf f xs = List.fold_left (fun a x -> a +. f x) 0. xs

type sim_totals = {
  s_generated : int;
  s_committed : int;
  s_aborted : int;
  s_user : int;
  s_failures : string list;
  s_cpu_us : float;  (** pooled over the cheapest batches *)
}

let sim_totals bs =
  { s_generated = sum (fun b -> b.R.sb_generated) bs;
    s_committed = sum (fun b -> b.R.sb_committed) bs;
    s_aborted = sum (fun b -> b.R.sb_aborted) bs;
    s_user = sum (fun b -> R.count_of "user" b.R.sb_by_reason) bs;
    s_failures = List.concat_map (fun b -> b.R.sb_failures) bs;
    s_cpu_us = pooled_cost (List.concat_map (fun b -> b.R.sb_samples) bs) }

let sim_failed t = t.s_generated - t.s_committed - t.s_user

let sim_end_to_end ~seed ~seconds =
  let bs, heap = R.sim_batches ~seed ~seconds ~min_batches:setups () in
  let t = sim_totals bs in
  { correct = t.s_failures = []; attempted = t.s_generated; failed = sim_failed t;
    failures = t.s_failures;
    metrics =
      [ metric "cpu_us_per_txn" "us" t.s_cpu_us;
        metric "setup_s" "s" (median (Array.of_list (List.map (fun b -> b.R.sb_setup_s) bs)));
        metric "peak_heap_mb" "MB" heap ] }

let sim_per_layer ~seed ~seconds =
  let before = gc_mark () in
  let (bs, _), batches_s = time (fun () -> R.sim_batches ~seed ~seconds ~min_batches:1 ()) in
  let after = gc_mark () in
  let c = Obs.Collector.create ~clock:Obs.Virtual ~containers:R.sb_containers () in
  let ts, _ = R.sim_batches ~collector:c ~seed ~seconds ~min_batches:1 () in
  let report = Obs.Report.summarize c in
  let u = sim_totals bs and tr = sim_totals ts in
  (* The first batch's seed depends only on --seed, so its counts and
     simulated latencies are exact and repeat run to run. *)
  let b0 = List.hd bs in
  let p50 = b0.R.sb_result.Harness.p50_latency and p99 = b0.R.sb_result.Harness.p99_latency in
  let run_s = sumf (fun b -> b.R.sb_run_s) bs in
  let events = sum (fun b -> b.R.sb_events) bs in
  let metrics =
    (* simulated latencies: wall-clock latency has no meaning here *)
    wall_rows ~tput:(float_of_int u.s_committed /. run_s) ~p50 ~p99
    @ phase_rows report
    @ [ overhead_row ~untraced_cpu_us:u.s_cpu_us ~traced_cpu_us:tr.s_cpu_us ]
    @ share_rows ~committed:u.s_committed ~aborted:u.s_aborted
        ~by_reason:[ ("user", u.s_user) ]
    @ abort_rows ~attempts:report.Obs.Report.r_attempts report.Obs.Report.r_aborts_by_kind
    @ busy_rows b0.R.sb_result.Harness.utilizations
    @ [ metric "wal.bytes_per_commit" "bytes" 0.; metric "wal.commits_per_flush" "count" 0.;
        metric "wal.flush_us" "us" 0. ]
    @ gc_metrics ~before ~after ~txns:(u.s_committed + u.s_aborted) ~seconds:batches_s
    @ [ metric "sim.events_per_txn" "count"
          (ratio (float_of_int b0.R.sb_events) (float_of_int b0.R.sb_committed));
        metric "sim.ns_per_event" "ns" (ratio (run_s *. 1e9) (float_of_int events));
        metric "reactdb.virtual_p50_us" "us" p50; metric "reactdb.virtual_p99_us" "us" p99 ]
  in
  let failures = u.s_failures @ tr.s_failures in
  { correct = failures = []; attempted = u.s_generated + tr.s_generated;
    failed = sim_failed u + sim_failed tr; failures; metrics }

(* --- output ------------------------------------------------------------ *)

let json_of_result r =
  let open Obs.Json in
  Obj
    [ ("correct", Bool r.correct);
      ("attempted", Num (float_of_int r.attempted));
      ("failed", Num (float_of_int r.failed));
      ("metrics",
        Obj
          (List.map
             (fun m -> (m.m_name, Obj [ ("value", Num m.m_value); ("unit", Str m.m_unit) ]))
             r.metrics)) ]

let stamp ~workload ~settings ~seed ~seconds ~trace ~rev =
  let open Obs.Json in
  Obj
    [ ("stamp",
        Obj
          [ ("workload", Str workload); ("seed", Num (float_of_int seed));
            ("seconds", Num seconds); ("trace", Bool trace); ("rev", Str rev);
            ("nproc", Num (float_of_int (Domain.recommended_domain_count ())));
            ("ocaml", Str Sys.ocaml_version);
            ("warmup_s", Num R.warmup_s);
            ("windows", Num (float_of_int R.windows));
            ("max_retries", Num (float_of_int R.max_retries));
            ("setups_per_run", Num (float_of_int setups));
            ("settings", Obj (List.map (fun (k, v) -> (k, Str v)) settings)) ]) ]

let usage () =
  prerr_endline
    "usage: perfbench --workload tpcc|ycsb_2pc|ycsb_durable|smallbank_sim \
     --seed N --seconds S --trace 0|1 [--rev REV]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and rev = ref "unknown" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--rev" :: v :: rest -> rev := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds > 0. ->
    let workload = !workload in
    let rt =
      match workload with
      | "tpcc" -> Some (R.tpcc ())
      | "ycsb_2pc" -> Some (R.ycsb_2pc ())
      | "ycsb_durable" -> Some (R.ycsb_durable ())
      | _ -> None
    in
    let result =
      match (rt, trace) with
      | Some w, false -> rt_end_to_end w ~seed ~seconds
      | Some w, true -> rt_per_layer w ~seed ~seconds
      | None, false -> sim_end_to_end ~seed ~seconds
      | None, true -> sim_per_layer ~seed ~seconds
    in
    let result =
      if trace then { result with metrics = result.metrics @ Pb_micro.all ~seed }
      else result
    in
    List.iter (fun f -> log "AUDIT FAILED: %s" f) result.failures;
    List.iter
      (fun m -> Printf.printf "%-32s %16.4f %s\n" m.m_name m.m_value m.m_unit)
      result.metrics;
    print_endline
      (Obs.Json.to_string
         (stamp ~workload ~seed ~seconds ~trace ~rev:!rev
            ~settings:(match rt with Some w -> w.R.settings | None -> R.sb_settings)));
    print_endline (Obs.Json.to_string (json_of_result result));
    if not result.correct then exit 1
  | _ -> usage ()
