(** The backward chain construction's placement kernel.

    Every solve path (chains, the §7 deadline variant, spider legs, batch,
    online and replanning) places its tasks through {!sweep} and
    {!commit}.  The paper's formulation materialises all [p] candidate
    vectors (total size O(p²)) on every placement and compares them with
    {!Msts_schedule.Comm_vector.precedes}; the kernel exploits their
    suffix-min structure instead: they all share the propagation
    [v_j = min(v_{j+1}, h_j) − c_j], whose maps are monotone, so the
    Definition 3 winner is decided with one scalar comparison per
    processor during a single O(p) backward sweep over a reusable scratch
    buffer — no per-task allocation beyond the chosen vector itself.

    The candidate scan survives as a test and explanation oracle
    ({!Algorithm.candidates}, {!Algorithm.select},
    {!Algorithm.schedule_with_selector}, and [Pseudocode], the Figure 3
    transcription); the differential suite checks the kernel against it
    placement by placement. *)

type scratch
(** Reusable buffer for the fast sweep; grows to the largest [p] seen. *)

val scratch : unit -> scratch

val sweep :
  Msts_platform.Chain.t ->
  hull:int array -> occupancy:int array -> scratch -> int
(** One fused candidates+select pass: returns the winning processor
    (1-based, the same index {!Algorithm.select} would pick) and leaves
    the winner's communication vector in the scratch buffer, readable
    through {!first_emission} and {!chosen_vector}.  Does not mutate the
    state arrays.  O(p) time, zero allocation after warm-up. *)

val first_emission : scratch -> int
(** The winner's link-1 emission date (coordinate 1 of its vector) after
    a {!sweep}; negative when the next task no longer fits the horizon. *)

val chosen_vector : scratch -> proc:int -> Msts_schedule.Comm_vector.t
(** Copy of the winner's communication vector (length [proc]) after a
    {!sweep} returning [proc].  The only allocation on the fast path. *)

val blit_chosen : scratch -> proc:int -> int array -> pos:int -> unit
(** Allocation-free variant of {!chosen_vector}: write the winner's vector
    (length [proc]) into [dst] at [pos].  Lets {!Incremental} store
    placements in a preallocated pool, so the whole per-arrival path runs
    without touching the minor heap. *)

val commit :
  Msts_platform.Chain.t ->
  hull:int array -> occupancy:int array -> scratch -> proc:int -> int
(** Apply the placement the last {!sweep} decided: update occupancy and
    hull in place exactly as {!Algorithm.place} would, bump the same
    counters, and return the task's start time. *)
