(* Measurement helpers shared by every workload: the clock, sample
   buffers, readers for /proc, and the JSON the benchmark prints. *)

(* Seconds on the monotonic clock, with nanosecond resolution: cell
   and layer timings are microseconds long, below gettimeofday's step. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- samples ------------------------------------------------------------ *)

(* A growable float buffer.  [add] allocates only when it doubles, so
   recording a latency on a hot path costs a store. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let count s = s.len

let merge ss =
  let m = samples () in
  List.iter (fun s -> for i = 0 to s.len - 1 do add m s.data.(i) done) ss;
  m

(* Percentile [p] (0 to 100) of the samples, by Stats' linear
   interpolation; nan when there are none, which the result reports as
   an unmeasured metric. *)
let percentile s p =
  if s.len = 0 then nan else Seqdiv_util.Stats.percentile (Array.sub s.data 0 s.len) p

(* Samples strictly above [x]: how many lie beyond a percentile. *)
let above s x =
  let n = ref 0 in
  for i = 0 to s.len - 1 do
    if s.data.(i) > x then incr n
  done;
  !n

(* --- /proc --------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A "Key:   value kB" line of /proc/<pid>/status, in KiB. *)
let status_kb pid key =
  let prefix = key ^ ":" in
  String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%s/status" pid))
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           String.sub line (String.length prefix)
             (String.length line - String.length prefix)
           |> String.map (fun c -> if c = '\t' then ' ' else c)
           |> String.split_on_char ' '
           |> List.filter (fun w -> w <> "" && w <> "kB")
           |> List.hd |> int_of_string_opt
         else None)
  |> Option.value ~default:0

let peak_rss_mb pid = float_of_int (status_kb pid "VmHWM") /. 1024.0

(* utime + stime of a whole process, in seconds.  Linux reports them in
   clock ticks of USER_HZ, which is 100 on every supported platform. *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%s/stat" pid) in
  (* The command name may contain spaces; fields restart after ')'. *)
  let rest =
    let i = String.rindex stat ')' in
    String.sub stat (i + 2) (String.length stat - i - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* utime and stime are fields 14 and 15 of the full line, i.e. 12 and
     13 counting from the state field. *)
  float_of_string fields.(11) +. float_of_string fields.(12) |> fun t ->
  t /. 100.0

(* --- JSON ---------------------------------------------------------------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec write b = function
  | Num x ->
      (* Every digit the float carries; JSON has no nan or infinity. *)
      if Float.is_finite x then Buffer.add_string b (Printf.sprintf "%.17g" x)
      else Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          write b (Str k);
          Buffer.add_string b ": ";
          write b v)
        l;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  write b j;
  Buffer.contents b

(* --- metrics ------------------------------------------------------------- *)

(* One reported figure: value, unit, and the number of samples behind
   it. *)
type metric = { name : string; value : float; unit_ : string; n : int }

let metric ?(n = 1) name unit_ value = { name; value; unit_; n }

let metrics_json ms =
  Obj
    (List.map
       (fun m -> (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ]))
       ms)

let detail_json ms =
  Obj
    (List.map
       (fun m ->
         ( m.name,
           Obj [ ("value", Num m.value); ("unit", Str m.unit_); ("n", Int m.n) ]
         ))
       ms)

(* --- files --------------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun e -> remove_tree (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let file_size path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
