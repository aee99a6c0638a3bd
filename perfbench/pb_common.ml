(* Shared plumbing of the benchmark: metrics, clocks, GC deltas and the
   pooled CPU cost. *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* What one invocation reports: the audit verdict, operation accounting and
   the metrics of the requested kind. An operation is one logical client
   transaction; it fails when its last attempt ended in a system abort. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  failures : string list;  (** audit messages, empty when [correct] *)
}

let now_s = Unix.gettimeofday

(* Monotonic nanoseconds; allocation-free, for timed calls. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Process CPU seconds, all threads. Unlike wall time it leaves out most of
   the time the host takes the virtual CPUs away from this machine. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

let median xs = Util.Stats.percentile (Util.Stats.of_list (Array.to_list xs)) 50.

(* CPU µs per transaction pooled over the cheapest three quarters of
   [(cpu seconds, transactions)] samples: outside interference only adds
   cost, so the costliest quarter is dropped. *)
let pooled_cost samples =
  let cost (c, n) = c /. float_of_int (max 1 n) in
  let sorted = List.sort (fun a b -> compare (cost a) (cost b)) samples in
  let keep = max 1 ((3 * List.length samples) / 4) in
  let kept = List.filteri (fun i _ -> i < keep) sorted in
  let cpu = List.fold_left (fun a (c, _) -> a +. c) 0. kept in
  let n = List.fold_left (fun a (_, n) -> a + n) 0 kept in
  cpu *. 1e6 /. float_of_int (max 1 n)

let pct num den = if den <= 0. then 0. else 100. *. num /. den

let ratio num den = if den <= 0. then 0. else num /. den

(* Whole-program allocation counters. Domains fold their counters into
   these totals only when they exit, so read them after the runtime's
   domains have been joined. *)
type gc_mark = {
  g_words : float;  (** words allocated, minor and direct-major *)
  g_promoted : float;
  g_majors : int;
}

let gc_mark () =
  let s = Gc.quick_stat () in
  { g_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words;
    g_promoted = s.Gc.promoted_words;
    g_majors = s.Gc.major_collections }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The three GC rows every workload reports, from marks taken around the
   measured load (after set-up, after the domains are joined). *)
let gc_metrics ~before ~after ~txns ~seconds =
  let txns = float_of_int txns in
  [ metric "gc.words_per_txn" "words" (ratio (after.g_words -. before.g_words) txns);
    metric "gc.promoted_words_per_txn" "words"
      (ratio (after.g_promoted -. before.g_promoted) txns);
    metric "gc.major_gcs_per_s" "1/s"
      (ratio (float_of_int (after.g_majors - before.g_majors)) seconds) ]

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
