open Seqdiv_detectors

type t = Trained : (module Detector.S with type model = 'm) * 'm -> t

let train (module D : Detector.S) ~window trace =
  (* A train task whose budget is already spent fails here, before the
     detector commits to a possibly checkpoint-free training loop. *)
  Seqdiv_util.Deadline.checkpoint ();
  Trained ((module D), D.train ~window trace)

let trie_capable (module D : Detector.S) = Option.is_some D.train_of_trie

let train_of_trie (module D : Detector.S) trie ~window =
  match D.train_of_trie with
  | None -> None
  | Some of_trie -> Some (Trained ((module D), of_trie trie ~window))

let name (Trained ((module D), _)) = D.name
let window (Trained ((module D), m)) = D.window m
let maximal_epsilon (Trained ((module D), _)) = D.maximal_epsilon
let alarm_threshold t = 1.0 -. maximal_epsilon t

let score (Trained ((module D), m)) trace = D.score m trace

let score_range (Trained ((module D), m)) trace ~lo ~hi =
  D.score_range m trace ~lo ~hi

let compile (Trained ((module D), m)) =
  match D.compile with None -> None | Some compile_model -> compile_model m
