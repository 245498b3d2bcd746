(** Coalescing window-level alarms into incidents.

    A detector emits one response per window, so a single anomalous
    event raises a burst of adjacent alarms (a size-AS anomaly under a
    size-DW window raises up to DW−AS+1 of them, plus boundary effects).
    An operator wants {e incidents}: maximal groups of alarms whose
    covered extents overlap or nearly touch.  This module groups them,
    summarises each group, and matches incident lists against ground
    truth — the unit the T2-style deployment analyses count. *)

open Seqdiv_detectors

type t = Seqdiv_stream.Frame.incident = {
  first_start : int;  (** window start of the first alarm *)
  last_start : int;  (** window start of the last alarm *)
  cover_from : int;  (** first trace position covered by the incident *)
  cover_to : int;  (** last trace position covered *)
  alarms : int;  (** number of window-level alarms coalesced *)
  peak_score : float;  (** maximum response within the incident *)
}
(** The serve layer's wire record ({!Seqdiv_stream.Frame.incident}), so
    a monitor's incidents go into frames and shard journals as they
    are. *)

val of_response : ?gap:int -> Response.t -> threshold:float -> t list
(** Group the alarms of a response (items with [score >= threshold])
    into incidents, in stream order.  Two consecutive alarms belong to
    the same incident when the next alarm's covered extent begins at
    most [gap] positions after the previous alarm's extent ends
    (default [gap = 0]: extents must overlap or touch). *)

val count : ?gap:int -> Response.t -> threshold:float -> int
(** Number of incidents. *)

val covers : t -> int -> bool
(** Whether a trace position falls inside the incident's extent. *)

val matches_ground_truth : t -> position:int -> size:int -> bool
(** Whether the incident's extent intersects the injected anomaly at
    [\[position, position+size-1\]]. *)

val split_by_ground_truth :
  t list -> position:int -> size:int -> t list * t list
(** Partition incidents into (true, false) against one injected
    anomaly. *)

val pp : Format.formatter -> t -> unit
(** Prints like [incident@\[120,131\] alarms=5 peak=1.00]. *)
