(** The spider algorithm (paper §7).

    Five steps for a deadline [T_lim] and a task budget [n]:

    + run the deadline chain algorithm on every leg;
    + turn each scheduled task into a single-task virtual node
      ({!Transform});
    + allocate with the fork algorithm ({!Msts_fork.Allocator});
    + map accepted nodes back to leg tasks (the last [k] of each leg);
    + re-stamp their first emissions with the allocator's one-port schedule
      (always earlier, Lemma 3) and keep everything else unchanged.

    Theorem 3 proves the result schedules the maximum number of tasks
    within [T_lim]; Theorem 2 bounds the cost by [O(n²p²)].  The optimal
    makespan for exactly [n] tasks follows by binary search on [T_lim]. *)

val leg_schedules :
  ?budget:int -> Msts_platform.Spider.t -> deadline:int -> Msts_schedule.Schedule.t array
(** Step 1: [leg_schedules spider ~deadline].(l-1) is leg [l]'s deadline
    schedule (at most [budget] tasks each). *)

val virtual_fork :
  Msts_platform.Spider.t -> deadline:int -> Msts_schedule.Schedule.t array ->
  Msts_fork.Expansion.vnode list
(** Steps 2–3's input: all legs' virtual nodes. *)

val schedule :
  ?budget:int -> Msts_platform.Spider.t -> deadline:int -> Msts_schedule.Spider_schedule.t
(** The full five steps.  Task count is maximal within [deadline] (capped by
    [budget] when given); tasks are numbered in emission order.
    @raise Invalid_argument on a negative deadline or budget. *)

val max_tasks : ?budget:int -> Msts_platform.Spider.t -> deadline:int -> int

val min_makespan : Msts_platform.Spider.t -> int -> int
(** Least deadline that fits [n] tasks (binary search over {!max_tasks};
    the staircase is monotone).  0 when [n = 0].  The search is
    warm-started at {!Msts_schedule.Bounds.spider_combined_bound}.  Each
    leg's backward construction runs once at the search ceiling and every
    probe replays it by shift invariance ([spider.leg_reuses] counts the
    replays), instead of re-running the deadline construction per
    probe. *)

val schedule_tasks : Msts_platform.Spider.t -> int -> Msts_schedule.Spider_schedule.t
(** Optimal-makespan schedule for exactly [n] tasks. *)

val makespan_upper_bound : Msts_platform.Spider.t -> int -> int
(** Cheap safe upper bound used to seed the binary search: best
    single-leg master-only makespan. *)
