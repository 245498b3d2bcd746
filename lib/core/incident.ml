open Seqdiv_detectors

type t = Seqdiv_stream.Frame.incident = {
  first_start : int;
  last_start : int;
  cover_from : int;
  cover_to : int;
  alarms : int;
  peak_score : float;
}

let of_item (item : Response.item) =
  {
    first_start = item.Response.start;
    last_start = item.Response.start;
    cover_from = item.Response.start;
    cover_to = item.Response.start + item.Response.cover - 1;
    alarms = 1;
    peak_score = item.Response.score;
  }

let extend incident (item : Response.item) =
  {
    incident with
    last_start = item.Response.start;
    cover_to =
      Stdlib.max incident.cover_to (item.Response.start + item.Response.cover - 1);
    alarms = incident.alarms + 1;
    peak_score = Float.max incident.peak_score item.Response.score;
  }

let of_response ?(gap = 0) response ~threshold =
  assert (gap >= 0);
  let alarms = Response.over response ~threshold in
  let rec group current acc = function
    | [] -> List.rev (match current with None -> acc | Some c -> c :: acc)
    | (item : Response.item) :: rest -> (
        match current with
        | None -> group (Some (of_item item)) acc rest
        | Some c ->
            if item.Response.start <= c.cover_to + 1 + gap then
              group (Some (extend c item)) acc rest
            else group (Some (of_item item)) (c :: acc) rest)
  in
  group None [] alarms

let count ?gap response ~threshold =
  List.length (of_response ?gap response ~threshold)

let covers t position = position >= t.cover_from && position <= t.cover_to

let matches_ground_truth t ~position ~size =
  t.cover_from <= position + size - 1 && t.cover_to >= position

let split_by_ground_truth incidents ~position ~size =
  List.partition (fun i -> matches_ground_truth i ~position ~size) incidents

let pp ppf t =
  Format.fprintf ppf "incident@@[%d,%d] alarms=%d peak=%.2f" t.cover_from
    t.cover_to t.alarms t.peak_score
