type t = { alphabet : Alphabet.t; data : int array }

let of_array alphabet data =
  Array.iter
    (fun s ->
      if not (Alphabet.mem alphabet s) then
        (* lint: allow partiality — documented precondition *)
        invalid_arg (Printf.sprintf "Trace.of_array: symbol %d out of range" s))
    data;
  { alphabet; data = Array.copy data }

let of_list alphabet l = of_array alphabet (Array.of_list l)

let alphabet t = t.alphabet
let length t = Array.length t.data

let get t i =
  assert (i >= 0 && i < length t);
  t.data.(i)

let sub t ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= length t);
  { t with data = Array.sub t.data pos len }

let to_array t = Array.copy t.data
let raw t = t.data

let check_compatible a b =
  if Alphabet.size a.alphabet <> Alphabet.size b.alphabet then
    (* lint: allow partiality — documented precondition *)
    invalid_arg "Trace: incompatible alphabets"

let concat a b =
  check_compatible a b;
  { a with data = Array.append a.data b.data }

let insert base ~pos piece =
  check_compatible base piece;
  assert (pos >= 0 && pos <= length base);
  let n = length base and m = length piece in
  let out = Array.make (n + m) 0 in
  Array.blit base.data 0 out 0 pos;
  Array.blit piece.data 0 out pos m;
  Array.blit base.data pos out (pos + m) (n - pos);
  { base with data = out }

let equal a b = a.data = b.data

let iter_windows t ~width f =
  assert (width > 0);
  for start = 0 to length t - width do
    f start
  done

let window_count t ~width =
  assert (width > 0);
  Stdlib.max 0 (length t - width + 1)

let pp ppf t =
  let n = length t in
  let shown = Stdlib.min n 32 in
  for i = 0 to shown - 1 do
    if i > 0 then Format.pp_print_char ppf ' ';
    Format.pp_print_string ppf (Alphabet.name t.alphabet t.data.(i))
  done;
  if n > shown then Format.fprintf ppf " ...(%d total)" n
