(* The fault taxonomy of the supervised execution layer.  A fault is
   the {e record} of a task failure — enough to classify it, report it
   in a performance-map cell, and account for the retries it consumed —
   never the exception itself escaping a batch. *)

type severity = Transient | Fatal | Timeout

exception Injected of severity * string

type t = {
  severity : severity;
  origin : string;
  attempts : int;
  backtrace : string;
}

(* A deadline expiry is its own severity: retrying a task that just
   spent its whole budget would spend another budget to learn nothing,
   so [Timeout] — like [Fatal] — is never retried, but it renders
   distinctly ([failed:timeout]) because the remedy differs: raise
   [--deadline-ms], don't fix the detector. *)
(* The named [Fatal] cases are the constructors the whole-program
   analysis (lint R10) proves raisable on supervised paths today; the
   final catch-all keeps custody of anything unforeseen, at the same
   severity. *)
let classify = function
  | Injected (severity, _) -> severity
  | Seqdiv_util.Deadline.Exceeded _ -> Timeout
  | Seqdiv_util.Deadline.Hang_refused -> Fatal
  | Invalid_argument _ -> Fatal
  | Assert_failure _ -> Fatal
  | _ -> Fatal

(* Asynchronous exceptions report exhaustion of the whole process, not
   a fault of the task that happened to observe them: rendering one
   into a per-task failure would hide that the server itself is dying.
   Supervised paths re-raise these before classifying. *)
let is_asynchronous = function
  | Out_of_memory | Stack_overflow -> true
  | _ -> false

let of_exn ~attempts exn backtrace =
  {
    severity = classify exn;
    origin = Printexc.to_string exn;
    attempts;
    backtrace = Printexc.raw_backtrace_to_string backtrace;
  }

let severity_to_string = function
  | Transient -> "transient"
  | Fatal -> "fatal"
  | Timeout -> "timeout"

let to_string t =
  Printf.sprintf "%s after %d attempt(s): %s"
    (severity_to_string t.severity)
    t.attempts t.origin

(* Backtraces are diagnostic only: two runs of the same plan must
   compare equal even when captured stacks differ. *)
let equal a b =
  a.severity = b.severity && a.origin = b.origin && a.attempts = b.attempts

exception Error of t

let () =
  Printexc.register_printer (function
    | Injected (severity, what) ->
        Some
          (Printf.sprintf "Fault.Injected(%s, %s)"
             (severity_to_string severity)
             what)
    | Error fault -> Some (Printf.sprintf "Fault.Error(%s)" (to_string fault))
    | _ -> None)
