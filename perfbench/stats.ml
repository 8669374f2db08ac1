(* Order statistics over float samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the two nearest order statistics, so a
   quantile moves smoothly with the data instead of jumping between
   samples.  [nan] on an empty sample. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let s = sorted a in
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))

let median a = quantile a 0.5
let sum a = Array.fold_left ( +. ) 0.0 a

(* A growable float vector, for samples whose count is not known ahead. *)
module Vec = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0.0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.data 0 v.len
  let length v = v.len
end
