type t = Blind | Weak of float | Capable of float | Failed of Fault.t

let classify ~epsilon ~max_response =
  assert (epsilon >= 0.0 && epsilon < 1.0);
  assert (max_response >= 0.0 && max_response <= 1.0);
  if max_response = 0.0 then Blind
  else if max_response >= 1.0 -. epsilon then Capable max_response
  else Weak max_response

let is_capable = function
  | Capable _ -> true
  | Blind | Weak _ | Failed _ -> false

let is_blind = function Blind -> true | Capable _ | Weak _ | Failed _ -> false
let is_weak = function Weak _ -> true | Blind | Capable _ | Failed _ -> false
let is_failed = function Failed _ -> true | Blind | Weak _ | Capable _ -> false

let max_response = function
  | Blind | Failed _ -> 0.0
  | Weak m | Capable m -> m

let to_char = function
  | Blind -> '.'
  | Weak _ -> 'o'
  | Capable _ -> '*'
  | Failed _ -> '!'

let to_string = function
  | Blind -> "blind"
  | Weak m -> Printf.sprintf "weak(%.4f)" m
  | Capable m -> Printf.sprintf "capable(%.4f)" m
  | Failed fault -> Printf.sprintf "failed(%s)" (Fault.to_string fault)

let equal a b =
  match (a, b) with
  | Blind, Blind -> true
  | Weak x, Weak y | Capable x, Capable y -> Float.equal x y
  | Failed x, Failed y -> Fault.equal x y
  | (Blind | Weak _ | Capable _ | Failed _), _ -> false
