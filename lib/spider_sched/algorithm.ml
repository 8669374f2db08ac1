module Spider = Msts_platform.Spider
module Chain = Msts_platform.Chain
module Schedule = Msts_schedule.Schedule
module Spider_schedule = Msts_schedule.Spider_schedule
module Allocator = Msts_fork.Allocator
module Deadline = Msts_chain.Deadline
module Obs = Msts_obs.Obs

let leg_schedules ?(budget = max_int) spider ~deadline =
  Obs.span "spider.leg_schedules" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  Array.init (Spider.legs spider) (fun idx ->
      Deadline.schedule ~max_tasks:budget
        (Spider.leg_chain spider (idx + 1))
        ~deadline)

let virtual_fork spider ~deadline legs =
  List.concat_map
    (fun l -> Transform.virtual_nodes ~leg:l ~deadline legs.(l - 1))
    (Msts_util.Intx.range 1 (Spider.legs spider))

let schedule ?(budget = max_int) spider ~deadline =
  if deadline < 0 then invalid_arg "Spider algorithm: negative deadline";
  if budget < 0 then invalid_arg "Spider algorithm: negative budget";
  Obs.span "spider.schedule" ~args:[ ("deadline", string_of_int deadline) ]
  @@ fun () ->
  let legs = leg_schedules ~budget spider ~deadline in
  let nodes = virtual_fork spider ~deadline legs in
  let allocations = Allocator.allocate nodes ~deadline ~budget in
  let entry_of { Allocator.node; emission; _ } =
    let leg = node.Msts_fork.Expansion.slave in
    let leg_sched = legs.(leg - 1) in
    let task = Transform.task_of_rank leg_sched ~rank:node.Msts_fork.Expansion.rank in
    let original = Schedule.entry leg_sched task in
    let comms = Array.copy original.comms in
    (* Lemma 3: the allocator's emission is never later than the original
       first emission, so only this coordinate changes. *)
    comms.(0) <- emission;
    {
      Spider_schedule.address = { Spider.leg; depth = original.proc };
      start = original.start;
      comms;
    }
  in
  let ordered =
    List.sort
      (fun a b -> Int.compare a.Allocator.position b.Allocator.position)
      allocations
  in
  Spider_schedule.make spider (Array.of_list (List.map entry_of ordered))

let max_tasks ?budget spider ~deadline =
  Spider_schedule.task_count (schedule ?budget spider ~deadline)

let makespan_upper_bound spider n =
  let best = ref max_int in
  for l = 1 to Spider.legs spider do
    best := min !best (Chain.master_only_makespan (Spider.leg_chain spider l) n)
  done;
  !best

(* Leg cache for the binary search: the backward construction is shift
   invariant — at horizon [d] it is the one at horizon [H], translated by
   [H − d], truncated where the first emission would cross time 0.  So
   each leg is constructed ONCE at the search ceiling, each placement is
   stamped with its margin (the least deadline that admits it, strictly
   increasing in placement order), and every probe reads its leg
   schedules off the cache with a bisection and an O(tasks) shift instead
   of re-running the kernel. *)
module Leg_cache = struct
  type leg = {
    chain : Chain.t;
    horizon : int;
    entries : Schedule.entry array;
        (* placement order (latest emission first), dates absolute at
           [horizon] *)
    margins : int array; (* margins.(i) = horizon − first emission of i *)
  }

  let build_leg chain ~horizon ~budget =
    let construction = Msts_chain.Incremental.create chain ~horizon in
    let placed = Msts_chain.Incremental.fill construction ~max_tasks:budget () in
    let sched = Msts_chain.Incremental.schedule construction in
    (* [sched] lists tasks in emission order; placement order is its
       reverse. *)
    let entries =
      Array.init placed (fun i -> Schedule.entry sched (placed - i))
    in
    let margins =
      Array.map
        (fun e ->
          horizon - Msts_schedule.Comm_vector.first_emission e.Schedule.comms)
        entries
    in
    { chain; horizon; entries; margins }

  let build spider ~horizon ~budget =
    Array.init (Spider.legs spider) (fun idx ->
        build_leg (Spider.leg_chain spider (idx + 1)) ~horizon ~budget)

  let leg_schedule_at { chain; horizon; entries; margins } ~deadline =
    let m = Msts_util.Intx.count_leq margins deadline in
    let shift = horizon - deadline in
    Schedule.make chain
      (Array.init m (fun j ->
           let e = entries.(m - 1 - j) in
           {
             e with
             Schedule.start = e.Schedule.start - shift;
             comms = Array.map (fun t -> t - shift) e.Schedule.comms;
           }))

  let max_tasks cache spider ~deadline ~budget =
    Obs.count ~n:(Array.length cache) "spider.leg_reuses";
    let legs = Array.map (leg_schedule_at ~deadline) cache in
    let nodes = virtual_fork spider ~deadline legs in
    List.length (Allocator.allocate nodes ~deadline ~budget)
end

let min_makespan spider n =
  if n < 0 then invalid_arg "Spider algorithm: negative task count";
  if n = 0 then 0
  else begin
    Obs.span "spider.min_makespan" ~args:[ ("n", string_of_int n) ] @@ fun () ->
    let hi = makespan_upper_bound spider n in
    (* Warm start: every spider bound is provably <= OPT. *)
    let lo = Msts_schedule.Bounds.spider_combined_bound spider n in
    let cache = Leg_cache.build spider ~horizon:hi ~budget:n in
    match
      Msts_util.Intx.binary_search_least ~lo ~hi (fun d ->
          Obs.count "spider.search_probes";
          Leg_cache.max_tasks cache spider ~deadline:d ~budget:n >= n)
    with
    | Some d -> d
    | None -> hi (* unreachable: a master-only leg schedule meets [hi] *)
  end

let schedule_tasks spider n =
  schedule ~budget:n spider ~deadline:(min_makespan spider n)
