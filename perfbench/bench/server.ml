(* A `seqdiv serve` child process, observed only from outside: its
   socket, /proc/<pid>, and (in traced runs) its runtime-events ring. *)

open Seqdiv_stream

type t = {
  pid : int;
  socket : string;
  argv : string list;
  mutable running : bool;
}

let children : t list ref = ref []

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let reap t =
  if t.running then
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ -> ()
    | _ -> t.running <- false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> t.running <- false

(* Timed servers run with the GC settings and tracing a user gets by
   default: OCAMLRUNPARAM and OCAML_RUNTIME_EVENTS_* are removed from
   the inherited environment, and only [env] is added back. *)
let environment env =
  let inherited =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           not
             (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
             || String.starts_with ~prefix:"OCAML_RUNTIME_EVENTS_" kv))
  in
  Array.of_list (inherited @ env)

let launch ~exe ~socket ~log ?(env = []) args =
  (try Unix.unlink socket with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let argv = exe :: "serve" :: "--socket" :: socket :: args in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Unix.create_process_env exe (Array.of_list argv) (environment env)
      Unix.stdin out out
  in
  Unix.close out;
  let t = { pid; socket; argv; running = true } in
  children := t :: !children;
  let deadline = Measure.now () +. 60.0 in
  let rec wait_ready () =
    match connect socket with
    | fd -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        reap t;
        if not t.running then
          failwith
            (Printf.sprintf "server exited during start-up (see %s)" log);
        if Measure.now () > deadline then
          failwith "server did not bind its socket within 60 s";
        Unix.sleepf 0.0002;
        wait_ready ()
  in
  wait_ready ();
  t

let pid_string t = string_of_int t.pid
let peak_rss_mb t = Measure.peak_rss_mb (pid_string t)
let cpu_s t = Measure.cpu_s (pid_string t)

(* Orderly stop: a Quit frame on a fresh connection, then wait for the
   process to exit; SIGKILL if it has not within [grace] seconds. *)
let stop ?(grace = 30.0) t =
  if t.running then begin
    (try
       let fd = connect t.socket in
       let b = Buffer.create 16 in
       Frame.write_request b Frame.Binary Frame.Quit;
       (try write_all fd (Buffer.contents b) with Unix.Unix_error _ -> ());
       Unix.close fd
     with Unix.Unix_error _ -> ());
    let deadline = Measure.now () +. grace in
    while t.running && Measure.now () < deadline do
      reap t;
      if t.running then Unix.sleepf 0.01
    done;
    if t.running then begin
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
      t.running <- false
    end
  end

(* Whatever happens to the benchmark, no server outlives it. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun t ->
          if t.running then begin
            (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
            t.running <- false
          end)
        !children)

(* --- GC phases from the server's runtime-events ring --------------------- *)

(* Reads the ring of a server launched with OCAML_RUNTIME_EVENTS_START=1
   and OCAML_RUNTIME_EVENTS_DIR=[dir].  Minor collections are counted,
   and every minor collection and major slice is a pause of the domain
   that ran it. *)
type gc_state = {
  open_phase : (int * Runtime_events.runtime_phase, int64) Hashtbl.t;
  pauses_us : Measure.samples;
  mutable minors : int;
  mutable lost : int;
  mutable recording : bool;
}

type gc = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  st : gc_state;
}

let tracked = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let gc_attach ~dir t =
  let deadline = Measure.now () +. 10.0 in
  let rec open_cursor () =
    match Runtime_events.create_cursor (Some (dir, t.pid)) with
    | c -> c
    | exception Failure _ when Measure.now () < deadline ->
        Unix.sleepf 0.01;
        open_cursor ()
  in
  let cursor = open_cursor () in
  let st =
    { open_phase = Hashtbl.create 16; pauses_us = Measure.samples ();
      minors = 0; lost = 0; recording = false }
  in
  let runtime_begin d ts p =
    if tracked p then
      Hashtbl.replace st.open_phase (d, p) (Runtime_events.Timestamp.to_int64 ts)
  in
  let runtime_end d ts p =
    if tracked p then
      match Hashtbl.find_opt st.open_phase (d, p) with
      | None -> ()
      | Some t0 ->
          Hashtbl.remove st.open_phase (d, p);
          if st.recording then begin
            let dt = Int64.sub (Runtime_events.Timestamp.to_int64 ts) t0 in
            Measure.add st.pauses_us (Int64.to_float dt /. 1000.0);
            if p = Runtime_events.EV_MINOR then st.minors <- st.minors + 1
          end
  in
  let lost_events _ n = if st.recording then st.lost <- st.lost + n in
  let callbacks =
    Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()
  in
  { cursor; callbacks; st }

let gc_poll g = ignore (Runtime_events.read_poll g.cursor g.callbacks None)

(* Drain what the set-up produced, then count from here on. *)
let gc_start g =
  gc_poll g;
  g.st.recording <- true

let gc_finish g =
  gc_poll g;
  g.st.recording <- false;
  Runtime_events.free_cursor g.cursor
