(* Cross-detector properties: relations between detectors that the
   implementations must satisfy by construction, checked on random
   traces rather than the curated suite. *)

open Seqdiv_stream
open Seqdiv_detectors
open Seqdiv_test_support

let train_test_gen =
  QCheck.(
    pair
      (list_of_size Gen.(20 -- 120) (int_bound 7))
      (list_of_size Gen.(5 -- 40) (int_bound 7)))

let prop_stide_alarms_subset_of_tstide =
  (* Foreign implies (foreign or rare): every stide alarm is a t-stide
     alarm, window for window. *)
  qcheck ~count:100 "stide alarms ⊆ t-stide alarms" train_test_gen
    (fun (train_l, test_l) ->
      let window = 3 in
      QCheck.assume (List.length train_l >= window);
      QCheck.assume (List.length test_l >= window);
      let train = trace8 train_l and test = trace8 test_l in
      let stide = Stide.train ~window train in
      let tstide = Tstide.train ~window train in
      let rs = Stide.score stide test and rt = Tstide.score tstide test in
      Array.for_all2
        (fun (a : Response.item) (b : Response.item) ->
          a.Response.score <= b.Response.score)
        rs.Response.items rt.Response.items)

let prop_markov_matches_brute_force =
  (* The Markov detector's estimate equals the count ratio computed
     naively from the training trace. *)
  qcheck ~count:100 "markov = brute-force count ratio" train_test_gen
    (fun (train_l, test_l) ->
      let window = 2 in
      QCheck.assume (List.length train_l >= window);
      QCheck.assume (List.length test_l >= window);
      let train = trace8 train_l and test = trace8 test_l in
      let model = Markov.train ~window train in
      let brute context next =
        let ctx_count = ref 0 and pair_count = ref 0 in
        for i = 0 to Trace.length train - 2 do
          if Trace.get train i = context then begin
            incr ctx_count;
            if Trace.get train (i + 1) = next then incr pair_count
          end
        done;
        (* The final element also forms a bare context but never a pair;
           Markov.train only counts full windows, so exclude it. *)
        if !ctx_count = 0 then 0.0
        else float_of_int !pair_count /. float_of_int !ctx_count
      in
      let r = Markov.score model test in
      Array.for_all
        (fun (i : Response.item) ->
          let context = Trace.get test i.Response.start in
          let next = Trace.get test (i.Response.start + 1) in
          Float.abs (i.Response.score -. (1.0 -. brute context next)) < 1e-9)
        r.Response.items)

let prop_lnb_best_match_is_optimal =
  (* best_match really returns the maximum similarity over the stored
     instances. *)
  qcheck ~count:100 "lnb best match is optimal"
    QCheck.(
      pair
        (list_of_size Gen.(10 -- 60) (int_bound 7))
        (list_of_size Gen.(4 -- 4) (int_bound 7)))
    (fun (train_l, probe_l) ->
      let window = 4 in
      QCheck.assume (List.length train_l >= window);
      let train = trace8 train_l in
      let model = Lane_brodley.train ~window train in
      let probe = Array.of_list probe_l in
      let _, best = Lane_brodley.best_match model probe in
      let ok = ref true in
      Trace.iter_windows train ~width:window (fun pos ->
          let w = Array.sub (Trace.raw train) pos window in
          if Lane_brodley.similarity probe w > best then ok := false);
      !ok)

let prop_stide_tstide_agree_when_threshold_zeroish =
  (* With a near-zero rarity threshold, t-stide degenerates to stide. *)
  qcheck ~count:100 "t-stide at ~0 threshold = stide" train_test_gen
    (fun (train_l, test_l) ->
      let window = 3 in
      QCheck.assume (List.length train_l >= window);
      QCheck.assume (List.length test_l >= window);
      let train = trace8 train_l and test = trace8 test_l in
      let stide = Stide.train ~window train in
      let tstide = Tstide.train_with ~threshold:1e-12 ~window train in
      let rs = Stide.score stide test and rt = Tstide.score tstide test in
      Array.for_all2
        (fun (a : Response.item) (b : Response.item) ->
          Float.equal a.Response.score b.Response.score)
        rs.Response.items rt.Response.items)

let prop_markov_upper_bounds_stide_on_its_grams =
  (* If stide at window w alarms (the w-gram is foreign), the Markov
     detector at the same window alarms too: either its (w-1)-context is
     unseen, or the continuation never followed it. *)
  qcheck ~count:100 "foreign window implies markov-maximal" train_test_gen
    (fun (train_l, test_l) ->
      let window = 3 in
      QCheck.assume (List.length train_l >= window);
      QCheck.assume (List.length test_l >= window);
      let train = trace8 train_l and test = trace8 test_l in
      let stide = Stide.train ~window train in
      let markov = Markov.train ~window train in
      let rs = Stide.score stide test and rm = Markov.score markov test in
      Array.for_all2
        (fun (s : Response.item) (m : Response.item) ->
          s.Response.score < 1.0 || m.Response.score = 1.0)
        rs.Response.items rm.Response.items)

let prop_nn_hmm_distributions_normalised =
  qcheck ~count:20 "nn and hmm predictive distributions normalised"
    QCheck.(list_of_size Gen.(30 -- 80) (int_bound 7))
    (fun train_l ->
      let window = 3 in
      let train = trace8 train_l in
      let nn =
        Neural.train_with
          { Neural.default_params with Neural.epochs = 5 }
          ~window train
      in
      let hmm =
        Hmm.train_with
          { Hmm.default_params with Hmm.iterations = 2; train_limit = 100 }
          ~window train
      in
      let context = [| 0; 1 |] in
      let sums_to_one probs =
        Float.abs (Array.fold_left ( +. ) 0.0 probs -. 1.0) < 1e-6
      in
      sums_to_one (Neural.predict nn context)
      && sums_to_one (Hmm.predict hmm context))

let () =
  Alcotest.run "cross_detector"
    [
      ( "cross",
        [
          prop_stide_alarms_subset_of_tstide;
          prop_markov_matches_brute_force;
          prop_lnb_best_match_is_optimal;
          prop_stide_tstide_agree_when_threshold_zeroish;
          prop_markov_upper_bounds_stide_on_its_grams;
          prop_nn_hmm_distributions_normalised;
        ] );
    ]
