(* Differential and search tests for the chain kernel (the O(n·p) fused
   sweep every solve runs) against the oracles that spell Definition 3 out:
   the Figure 3 transcription ([Chain_pseudocode]), the candidate-scan
   construction ([schedule_with_selector ~select:Algorithm.select]), and,
   for the deadline and spider searches, the least/greatest task counts
   recomputed from scratch.  The warm-started binary searches must return
   the same answers as full-range searches with strictly fewer probes. *)

open Helpers
module Algorithm = Msts.Chain_algorithm
module Obs = Msts.Obs

let kernel_plan chain n = Msts.Plan.Chain (Algorithm.schedule chain n)
let pseudocode_plan chain n = Msts.Plan.Chain (Msts.Chain_pseudocode.schedule chain n)

let scan chain n = Algorithm.schedule_with_selector ~select:Algorithm.select chain n
let scan_makespan chain n = Msts.Schedule.makespan (scan chain n)

(* The largest task count whose optimal makespan (by the candidate scan)
   fits in [deadline], found by walking up from 0. *)
let oracle_max_tasks chain ~deadline =
  let rec go m = if scan_makespan chain (m + 1) > deadline then m else go (m + 1) in
  go 0

(* The [m]-task optimal schedule moved to end at [horizon]: what a
   deadline construction from [horizon] must produce, since the backward
   construction is shift-equivariant. *)
let ending_at chain m ~horizon =
  let s = Msts.Chain_pseudocode.schedule chain m in
  Msts.Schedule.shift (Msts.Schedule.makespan s - horizon) s

(* ---------- differential: kernel vs the Definition 3 oracles ---------- *)

let schedules_identical =
  to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"schedule: kernel = Figure 3 transcription = candidate scan (chains)"
       (chain_with_n_arb ~max_p:6 ~max_n:12 ())
       (fun (chain, n) ->
         let plan = kernel_plan chain n in
         Msts.Plan.equal plan (pseudocode_plan chain n)
         && Msts.Plan.equal plan (Msts.Plan.Chain (scan chain n))))

let makespans_identical =
  to_alcotest
    (QCheck.Test.make ~count:300 ~name:"makespan: kernel = candidate scan = schedule"
       (chain_with_n_arb ~max_p:6 ~max_n:12 ())
       (fun (chain, n) ->
         let fast = Algorithm.makespan chain n in
         fast = scan_makespan chain n
         && fast = Msts.Schedule.makespan (Algorithm.schedule chain n)))

let per_step_decisions =
  to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"on_step: every kernel placement is Definition 3's pick"
       (chain_with_n_arb ~max_p:6 ~max_n:12 ())
       (fun (chain, n) ->
         let check (s : Algorithm.step) =
           let cands = s.Algorithm.all_candidates in
           let want = Algorithm.select cands + 1 in
           if s.Algorithm.chosen_proc <> want then
             QCheck.Test.fail_reportf "task %d: kernel chose P%d, Definition 3 P%d"
               s.Algorithm.task s.Algorithm.chosen_proc want;
           if s.Algorithm.chosen_vector <> cands.(want - 1) then
             QCheck.Test.fail_reportf "task %d: kernel vector differs from P%d's candidate"
               s.Algorithm.task want;
           if cands <> Algorithm.candidates chain s.Algorithm.state_before then
             QCheck.Test.fail_reportf "task %d: candidates do not match state_before"
               s.Algorithm.task
         in
         let (_ : Msts.Schedule.t) = Algorithm.schedule ~on_step:check chain n in
         true))

let observing_changes_nothing =
  to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"on_step: observing changes neither the schedule nor the counters"
       (chain_with_n_arb ~max_p:6 ~max_n:12 ())
       (fun (chain, n) ->
         let run on_step =
           let mem = Obs.Memory.create () in
           let s =
             Obs.with_sink (Obs.Memory.sink mem) (fun () ->
                 Algorithm.schedule ?on_step chain n)
           in
           (s, Obs.Memory.counter_rows mem)
         in
         let plain, plain_counters = run None in
         let seen, seen_counters = run (Some ignore) in
         Msts.Schedule.equal plain seen && plain_counters = seen_counters))

let deadline_schedules_identical =
  to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"deadline: most tasks with optimal makespan <= d, at several deadlines"
       (chain_with_n_arb ~max_p:5 ~max_n:8 ())
       (fun (chain, n) ->
         let opt = Algorithm.makespan chain n in
         Msts.Chain_lemmas.incremental_suffix chain n
         && List.for_all
              (fun deadline ->
                let m = oracle_max_tasks chain ~deadline in
                Msts.Chain_deadline.max_tasks chain ~deadline = m
                && Msts.Plan.equal
                     (Msts.Plan.Chain (Msts.Chain_deadline.schedule chain ~deadline))
                     (Msts.Plan.Chain (ending_at chain m ~horizon:deadline)))
              [ opt; opt / 2; (2 * opt) + 3 ]))

let incremental_identical =
  to_alcotest
    (QCheck.Test.make ~count:200 ~name:"incremental fill: most tasks that fit the horizon"
       (chain_with_n_arb ~max_p:5 ~max_n:8 ())
       (fun (chain, n) ->
         let horizon = Algorithm.horizon chain n in
         let t = Msts.Chain_incremental.create chain ~horizon in
         let placed = Msts.Chain_incremental.fill t () in
         let m = oracle_max_tasks chain ~deadline:horizon in
         let expected = ending_at chain m ~horizon in
         placed = m
         && Msts.Chain_incremental.earliest_emission t
            = (if m = 0 then None
               else Some (Msts.Schedule.entry expected 1).Msts.Schedule.comms.(0))
         && Msts.Plan.equal
              (Msts.Plan.Chain (Msts.Chain_incremental.schedule t))
              (Msts.Plan.Chain expected)))

(* The spider oracle: a cold full-range search over the uncached
   [max_tasks], which re-runs every leg's deadline construction per probe. *)
let full_range_min_makespan spider n =
  if n = 0 then 0
  else
    match
      Msts.Intx.binary_search_least ~lo:0
        ~hi:(Msts.Spider_algorithm.makespan_upper_bound spider n)
        (fun d -> Msts.Spider_algorithm.max_tasks ~budget:n spider ~deadline:d >= n)
    with
    | Some d -> d
    | None -> QCheck.Test.fail_reportf "no deadline fits %d tasks" n

let spider_plans_identical =
  to_alcotest
    (QCheck.Test.make ~count:100 ~name:"spider: leg-cache plans = full-range search plans"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:6 ())
       (fun (spider, n) ->
         let deadline = full_range_min_makespan spider n in
         Msts.Plan.equal
           (Msts.Plan.Spider (Msts.Spider_algorithm.schedule_tasks spider n))
           (Msts.Plan.Spider (Msts.Spider_algorithm.schedule ~budget:n spider ~deadline))))

let spider_makespans_identical =
  to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"spider: leg-cache min_makespan = full-range search"
       (spider_with_n_arb ~max_legs:3 ~max_depth:2 ~max_n:6 ())
       (fun (spider, n) ->
         Msts.Spider_algorithm.min_makespan spider n = full_range_min_makespan spider n))

(* Times are typed positive in the paper (T : [1;n] -> N+), and Chain.make
   enforces it — c = 0 links or w = 0 slaves are outside the model.  The
   degenerate corner is therefore the minimal legal platform. *)
let degenerate_rejected () =
  Alcotest.check_raises "c = 0 is outside the model"
    (Invalid_argument "Msts.Chain.make: non-positive latency") (fun () ->
      ignore (Msts.Chain.of_pairs [ (0, 1) ]));
  Alcotest.check_raises "w = 0 is outside the model"
    (Invalid_argument "Msts.Chain.make: non-positive work time") (fun () ->
      ignore (Msts.Chain.of_pairs [ (1, 0) ]))

let minimal_platform () =
  let unit_chain = Msts.Chain.of_pairs [ (1, 1) ] in
  List.iter
    (fun (chain, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "p=%d n=%d identical" (Msts.Chain.length chain) n)
        true
        (Msts.Plan.equal (kernel_plan chain n) (pseudocode_plan chain n));
      Alcotest.(check int)
        (Printf.sprintf "p=%d n=%d makespan" (Msts.Chain.length chain) n)
        (scan_makespan chain n) (Algorithm.makespan chain n))
    [
      (unit_chain, 0);
      (unit_chain, 1);
      (unit_chain, 5);
      (figure2_chain, 0);
      (figure2_chain, 1);
      (Msts.Chain.of_pairs [ (7, 2) ], 4);
    ]

(* ---------- warm-started searches ---------- *)

let counter_total mem name =
  List.fold_left
    (fun acc -> function
      | [ n; total ] when n = name -> acc + int_of_string total
      | _ -> acc)
    0
    (Obs.Memory.counter_rows mem)

(* Probe count of the old cold search (lo = 0), measured independently so
   the test does not depend on implementation details of the search. *)
let naive_probes ~lo ~hi p =
  let probes = ref 0 in
  let result =
    Msts.Intx.binary_search_least ~lo ~hi (fun x ->
        incr probes;
        p x)
  in
  (result, !probes)

let chain_search_probes_drop () =
  let n = 40 in
  let hi = Msts.Chain.master_only_makespan figure2_chain n in
  let naive_result, naive =
    naive_probes ~lo:0 ~hi (fun d ->
        Msts.Chain_deadline.max_tasks figure2_chain ~deadline:d >= n)
  in
  let mem = Obs.Memory.create () in
  let warm_result =
    Obs.with_sink (Obs.Memory.sink mem) (fun () ->
        Msts.Chain_deadline.min_makespan_via_deadline figure2_chain n)
  in
  let warm = counter_total mem "chain.deadline.search_probes" in
  Alcotest.(check (option int)) "same makespan" (Some warm_result) naive_result;
  Alcotest.(check int)
    "agrees with the direct algorithm"
    (Msts.Chain_algorithm.makespan figure2_chain n)
    warm_result;
  Alcotest.(check bool)
    (Printf.sprintf "fewer probes (%d warm < %d naive)" warm naive)
    true (warm < naive)

let spider_search_probes_drop () =
  let spider = Msts.Spider.of_legs [ figure2_chain; Msts.Chain.of_pairs [ (1, 2) ] ] in
  let n = 12 in
  let hi = Msts.Spider_algorithm.makespan_upper_bound spider n in
  let naive_result, naive =
    naive_probes ~lo:0 ~hi (fun d ->
        Msts.Spider_algorithm.max_tasks ~budget:n spider ~deadline:d >= n)
  in
  let mem = Obs.Memory.create () in
  let warm_result =
    Obs.with_sink (Obs.Memory.sink mem) (fun () ->
        Msts.Spider_algorithm.min_makespan spider n)
  in
  let warm = counter_total mem "spider.search_probes" in
  Alcotest.(check (option int)) "same makespan" (Some warm_result) naive_result;
  Alcotest.(check bool)
    (Printf.sprintf "fewer probes (%d warm < %d naive)" warm naive)
    true (warm < naive);
  Alcotest.(check bool) "legs are replayed from the cache" true
    (counter_total mem "spider.leg_reuses" > 0)

let suites =
  [
    ( "kernel.differential",
      [
        schedules_identical;
        makespans_identical;
        per_step_decisions;
        observing_changes_nothing;
        deadline_schedules_identical;
        incremental_identical;
        spider_plans_identical;
        spider_makespans_identical;
        case "degenerate c=0/w=0 are outside the model" degenerate_rejected;
        case "minimal legal platforms" minimal_platform;
      ] );
    ( "kernel.search",
      [
        case "chain deadline search probes drop (Fig. 2)" chain_search_probes_drop;
        case "spider search probes drop (Fig. 2 spider)" spider_search_probes_drop;
      ] );
  ]
