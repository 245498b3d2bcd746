(** Paper-shaped renderings of every experiment: one function per
    figure/table of the reproduction (see DESIGN.md §3).  These are the
    rows/series the CLI's [full], [ablation] and [extensions] print. *)

open Seqdiv_core
open Seqdiv_synth

val figure2 : Suite.t -> window:int -> anomaly_size:int -> string
(** The boundary-sequence / incident-span illustration: the injected
    stream around the anomaly, with the anomaly elements marked [F], the
    background elements involved in boundary sequences marked [+], and
    the incident-span extent reported. *)

val figure7 : unit -> string
(** The L&B similarity worked example: two size-5 command sequences,
    identical (similarity 15) and differing in the final element
    (similarity 10). *)

val figure_map : Performance_map.t -> string
(** One of Figures 3–6: the rendered performance map of a detector. *)

val table1 : Performance_map.t list -> string
(** T1: per-detector outcome counts and all pairwise coverage
    relations, including the subset facts behind the paper's
    combination arguments. *)

val table2 : Deployment.suppressor_report -> string
(** T2: false alarms per detector on a rare-containing deployment
    stream, the Markov∧Stide suppression partition, and whether the
    ensemble retains the hit. *)

val table3 : Deployment.lnb_threshold_point list -> string
(** T3: L&B threshold lowering — per window, the threshold needed to
    catch the anomaly, whether it is caught, and the false-alarm rate
    paid. *)

val ablation1 : Ablation.lfc_point list -> string
(** A1: Stide with and without the locality frame count. *)

val ablation2 : Ablation.nn_point list -> string
(** A2: neural-network hyper-parameter sensitivity. *)

val ablation3 : Ablation.alphabet_point list -> string
(** A3: alphabet-size invariance of the map shapes. *)

val ablation4 : Ablation.rare_point list -> string
(** A4: sensitivity of the rare-sequence threshold. *)

val extension1 : paper_maps:Performance_map.t list ->
  extension_maps:Performance_map.t list -> string
(** E1: performance maps of the extension detectors (t-stide, HMM) and
    their coverage relations against the paper's four. *)

val extension2 : Performance_map.t list -> string
(** E2: the rare-anomaly maps — per-detector outcome counts over the
    AS × DW grid when the injected anomaly is a rare (present) sequence
    instead of a foreign one. *)

val ablation6 : Ablation.window_point list -> string
(** A6: Stide's detection-coverage vs false-alarm trade-off as the
    window grows — the window-selection question of Tan & Maxion 2002
    ("Why 6?"). *)

val extension3 : Ablation.seed_point list -> string
(** E3: map-shape invariance across PRNG seeds. *)

val ablation7 : Ablation.deviation_point list -> string
(** A7: the deviation-rate band within which minimal foreign sequences
    are constructible and the evaluation suite builds. *)

val ablation8 : Ablation.smoothing_point list -> string
(** A8: Laplace smoothing of the Markov detector vs the
    maximal-response criterion. *)

val extension4 : (string * Session_eval.confusion) list -> string
(** E4: per-session classification — detection and false-alarm rates at
    the granularity deployed systems are judged by. *)
