(* Monotonic nanosecond clock: every duration the benchmark reports is a
   difference of two readings, never a wall-clock time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_of_ns ns = float_of_int ns /. 1e3
let s_of_ns ns = float_of_int ns /. 1e9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let sleep_s s = if s > 0.0 then ignore (Unix.select [] [] [] s)
