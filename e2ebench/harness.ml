(* Runs a workload: untraced reductions through [Pdat.Pipeline.run] for
   the end-to-end metrics, or a traced stage-by-stage replay of the same
   reductions for the per-layer metrics.  Every output is checked
   independently, outside the timed region. *)

module W = Workload

type metric = { name : string; value : float; unit_ : string }

(* What a reduction produced, whether it came from the pipeline or from
   the replay. *)
type output = {
  reduced : Netlist.Design.t;
  proved : int;
  before : Netlist.Stats.t;
  after : Netlist.Stats.t;
  audit : Analysis.Diag.t list;
  validation : Pdat.Validate.outcome option;
  fallback : string option;
}

let of_result (r : Pdat.Pipeline.result) =
  let rep = r.Pdat.Pipeline.report in
  {
    reduced = r.Pdat.Pipeline.reduced;
    proved = rep.Pdat.Pipeline.proved;
    before = rep.Pdat.Pipeline.before;
    after = rep.Pdat.Pipeline.after;
    audit = rep.Pdat.Pipeline.audit;
    validation = rep.Pdat.Pipeline.validation;
    fallback = rep.Pdat.Pipeline.fallback_reason;
  }

let digest o = Digest.to_hex (Digest.string (Netlist.Verilog.to_string o.reduced))

let gates_removed_pct o =
  Netlist.Stats.delta_pct
    ~baseline:(float_of_int (Netlist.Stats.gate_count o.before))
    (float_of_int (Netlist.Stats.gate_count o.after))

let area_removed_pct o =
  Netlist.Stats.delta_pct ~baseline:o.before.Netlist.Stats.area
    o.after.Netlist.Stats.area

(* ---------------- set-up -------------------------------------------- *)

type setup = {
  reductions : W.reduction list;
  build_s : float;
  env_s : float;
}

let timed f =
  let t0 = Obs.Clock.now_s () in
  let r = f () in
  (r, Obs.Clock.now_s () -. t0)

let setup ?spans (w : W.t) =
  let span name f =
    match spans with
    | Some t -> Spans.with_span t name f
    | None -> f ()
  in
  let (design, cut_nets), build_s =
    timed (fun () -> span "setup.build" w.W.build)
  in
  let reductions, env_s =
    timed (fun () -> span "setup.env" (fun () -> W.reductions w design cut_nets))
  in
  { reductions; build_s; env_s }

(* ---------------- configuration of one run -------------------------- *)

let clamp_jobs j = max 1 (min j (Obs.Hw.online_cores ()))

let rsim_configs (w : W.t) ~seed =
  ( { w.W.mine with Engine.Rsim.seed },
    { w.W.refine with Engine.Rsim.seed } )

let validate_config (w : W.t) ~seed = { w.W.validate with Pdat.Validate.seed }

let fresh_cache (w : W.t) =
  if w.W.shared_cache then Some (Engine.Proof_cache.create ()) else None

(* ---------------- untraced: the program as users run it -------------- *)

let reduce_untraced (w : W.t) ~seed ~cache (r : W.reduction) =
  let rsim, refine = rsim_configs w ~seed in
  of_result
    (Pdat.Pipeline.run ~rsim ~refine ~induction:w.W.induction ~jobs:w.W.jobs
       ?cache ~sieve:false ~absint:false ~validate:true
       ~validate_config:(validate_config w ~seed) ~lint:Analysis.Lint.Warn
       ~design:r.W.design ~env:r.W.env ())

(* ---------------- traced: the same reduction, layer by layer --------- *)

(* Work counted inside one layer span: the deltas of the always-on
   [Obs] counters while it was open. *)
let counted f =
  let c0 = Obs.counters () in
  let r = f () in
  let d = Obs.counters_delta ~since:c0 in
  (r, fun name -> Option.value ~default:0. (List.assoc_opt name d))

type layer_counts = {
  mutable mine_cycles : float;
  mutable mine_cell_cycles : float;
  mutable mined : int;
  mutable refine_cycles : float;
  mutable refine_cell_cycles : float;
  mutable refined : int;
  mutable sat_calls : float;
  mutable conflicts : float;
  mutable propagations : float;
  mutable workers : int;
  mutable idle_fracs : float list;  (** forked runs only *)
  mutable cache_hits : int;
  mutable cache_lookups : int;
  mutable proved_n : int;
  mutable edits : int;
  mutable resynth_removed : int;
  mutable observations : int;
  mutable validate_cycles : int;
}

let blank_counts () =
  {
    mine_cycles = 0.; mine_cell_cycles = 0.; mined = 0; refine_cycles = 0.;
    refine_cell_cycles = 0.; refined = 0; sat_calls = 0.; conflicts = 0.;
    propagations = 0.; workers = 0; idle_fracs = []; cache_hits = 0;
    cache_lookups = 0; proved_n = 0; edits = 0; resynth_removed = 0;
    observations = 0; validate_cycles = 0;
  }

(* Mirrors [Pdat.Pipeline.run] with no budget, journal, provenance,
   fault or sieve/absint: the same stage order, the same calls and the
   same arguments, each wrapped in a layer span. *)
let reduce_traced spans (k : layer_counts) (w : W.t) ~seed ~cache
    (r : W.reduction) =
  let sp name f = Spans.with_span spans name f in
  let design = r.W.design and env = r.W.env in
  let model = env.Pdat.Environment.model
  and assume = env.Pdat.Environment.assume
  and stimulus = env.Pdat.Environment.stimulus in
  let model_cells = float_of_int (Netlist.Design.num_cells model) in
  let rsim, refine = rsim_configs w ~seed in
  sp "reduce" @@ fun () ->
  let input_lint =
    sp "lint" (fun () ->
        match Analysis.Lint.well_formed design with
        | _ :: _ as errs -> raise (Pdat.Pipeline.Rejected errs)
        | [] -> Analysis.Lint.run design)
  in
  let candidates, n =
    counted (fun () ->
        sp "mine" (fun () ->
            Pdat.Property_library.mine ~config:rsim ~model ~assume ~stimulus ()
            |> Pdat.Property_library.restrict_to_original ~original:design))
  in
  k.mine_cycles <- k.mine_cycles +. n "rsim.cycles";
  k.mine_cell_cycles <- k.mine_cell_cycles +. (n "rsim.cycles" *. model_cells);
  k.mined <- k.mined + List.length candidates;
  let candidates, n =
    counted (fun () ->
        sp "refine" (fun () ->
            Engine.Rsim.refine ~config:refine ~assume model stimulus candidates))
  in
  k.refine_cycles <- k.refine_cycles +. n "rsim.cycles";
  k.refine_cell_cycles <-
    k.refine_cell_cycles +. (n "rsim.cycles" *. model_cells);
  k.refined <- k.refined + List.length candidates;
  let (proved, istats), n =
    counted (fun () ->
        sp "prove" (fun () ->
            Engine.Induction.prove_parallel ~options:w.W.induction
              ~cex:(stimulus, 24) ~jobs:(clamp_jobs w.W.jobs) ?cache
              ~recovered:[] ~sieve:false ~assume model candidates))
  in
  Option.iter Engine.Proof_cache.flush cache;
  k.sat_calls <- k.sat_calls +. n "sat.calls";
  k.conflicts <- k.conflicts +. n "sat.conflicts";
  k.propagations <- k.propagations +. n "sat.propagations";
  k.workers <- max k.workers istats.Engine.Induction.workers;
  if istats.Engine.Induction.workers > 0 then
    k.idle_fracs <- istats.Engine.Induction.worker_idle_frac :: k.idle_fracs;
  k.cache_hits <- k.cache_hits + istats.Engine.Induction.cache_hits;
  k.cache_lookups <-
    k.cache_lookups + istats.Engine.Induction.cache_hits
    + istats.Engine.Induction.cache_misses;
  k.proved_n <- k.proved_n + List.length proved;
  let rewired, certificate =
    sp "rewire" (fun () -> Pdat.Rewire.apply_certified design proved)
  in
  k.edits <- k.edits + Analysis.Certificate.length certificate;
  let audit =
    sp "audit" (fun () ->
        Analysis.Audit.run ~pre_lint:input_lint ~original:design ~rewired
          ~proved ~certificate ())
  in
  let reduced = sp "resynth" (fun () -> fst (Synthkit.Optimize.run rewired)) in
  k.resynth_removed <-
    k.resynth_removed + Netlist.Design.num_cells rewired
    - Netlist.Design.num_cells reduced;
  let base_design, before = sp "baseline" (fun () -> Pdat.Pipeline.baseline design) in
  let outcome =
    sp "validate" (fun () ->
        Pdat.Validate.run ~config:(validate_config w ~seed) ~original:design
          ~reduced ~env ())
  in
  let reduced, fallback =
    match outcome with
    | Pdat.Validate.Equivalent { runs; cycles; observations } ->
        k.observations <- k.observations + observations;
        k.validate_cycles <- k.validate_cycles + (runs * cycles);
        (reduced, None)
    | Pdat.Validate.Divergent _ | Pdat.Validate.Unsupported _ ->
        (base_design, Some (Pdat.Validate.describe outcome))
  in
  {
    reduced;
    proved = List.length proved;
    before;
    after = Netlist.Stats.of_design reduced;
    audit;
    validation = Some outcome;
    fallback;
  }

(* ---------------- the independent check ----------------------------- *)

(* Failures of one reduction, empty when its output is right: the audit
   has no error, validation says [Equivalent], the result is not the
   baseline, and a 2-frame SAT miter against the port-level model of the
   same restriction finds no difference. *)
let check (r : W.reduction) = function
  | Error msg -> ([ "raised " ^ msg ], 0.)
  | Ok o ->
      let fails = ref [] in
      let fail s = fails := s :: !fails in
      (match Analysis.Diag.errors o.audit with
      | [] -> ()
      | d :: _ -> fail ("audit: " ^ Analysis.Diag.to_string d));
      (match o.validation with
      | Some (Pdat.Validate.Equivalent _) -> ()
      | Some v -> fail ("validation: " ^ Pdat.Validate.describe v)
      | None -> fail "validation did not run");
      Option.iter (fun why -> fail ("fell back to baseline: " ^ why)) o.fallback;
      let cenv = Lazy.force r.W.check_env in
      let verdict, equiv_s =
        timed (fun () ->
            Engine.Equiv.bounded ~assume:cenv.Pdat.Environment.assume ~frames:2
              cenv.Pdat.Environment.model o.reduced)
      in
      (match verdict with
      | Engine.Equiv.Equivalent -> ()
      | Engine.Equiv.Counterexample { frame; output } ->
          fail (Printf.sprintf "equiv: %s differs in frame %d" output frame)
      | Engine.Equiv.Unknown -> fail "equiv: conflict budget exhausted");
      (List.rev !fails, equiv_s)

(* ---------------- runs ---------------------------------------------- *)

type pass = { outputs : (W.reduction * (output, string) result) list; wall_s : float }

let attempt f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* Each pass starts after a full major collection, so garbage left by
   set-up or by the previous pass is not collected on this pass's
   clock. *)
let run_pass reduce (w : W.t) (s : setup) =
  Gc.compact ();
  let cache = fresh_cache w in
  let outputs, wall_s =
    timed (fun () ->
        List.map (fun r -> (r, attempt (fun () -> reduce ~cache r))) s.reductions)
  in
  { outputs; wall_s }

type verdicts = {
  mutable attempted : int;
  mutable failed : int;
  mutable equiv_s : float;
  mutable messages : string list;
}

(* Checks every output of a pass; true for each one that passed. *)
let check_pass v p =
  List.map
    (fun (r, o) ->
      let fails, dt = check r o in
      v.attempted <- v.attempted + 1;
      v.equiv_s <- v.equiv_s +. dt;
      if fails <> [] then begin
        v.failed <- v.failed + 1;
        v.messages <-
          v.messages
          @ List.map (fun f -> Printf.sprintf "%s: %s" r.W.label f) fails
      end;
      fails = [])
    p.outputs

let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
          | Some _ -> go ()
        in
        go ())
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> nan

type report = {
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the JSON *)
  verdicts : verdicts;
}

let m name value unit_ = { name; value; unit_ }

let mean_of f outs =
  match List.filter_map (function _, Ok o -> Some (f o) | _, Error _ -> None) outs with
  | [] -> 0.
  | xs -> Stats.mean xs

let setups_per_run = 9

(* Runs [f] in a forked child and returns the value it sends back, or
   [None] if the child raised or died first.  Buffered output is flushed
   on both sides of the fork, so that none is lost or printed twice. *)
let in_child (f : unit -> 'a) : 'a option =
  flush_all ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        try
          let v = f () in
          flush_all ();
          let oc = Unix.out_channel_of_descr wr in
          Marshal.to_channel oc v [];
          close_out oc;
          0
        with e ->
          prerr_endline ("e2ebench: child failed: " ^ Printexc.to_string e);
          flush_all ();
          1
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let v =
        try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      v

(* Times [n] set-ups in a forked child, so that the designs they build
   never reach this process's heap or its peak RSS.  A child that fails
   returns no samples. *)
let time_setups_forked (w : W.t) n =
  Option.value ~default:[]
    (in_child (fun () ->
         List.init n (fun _ ->
             Gc.compact ();
             let s = setup w in
             s.build_s +. s.env_s)))

(* End-to-end: [setups_per_run] set-ups (all but the kept one in a
   forked child), then closed-loop passes over the workload's reductions
   until [seconds] of pass time have been measured.  Each pass's outputs
   are checked once its clock has stopped and then dropped, so every
   pass runs in the same heap.  Peak RSS is read after the first pass and
   before its check, so it is one pass's alone, whatever the number of
   passes. *)
let run_untraced (w : W.t) ~seed ~seconds =
  let v = { attempted = 0; failed = 0; equiv_s = 0.; messages = [] } in
  let extra = time_setups_forked w (setups_per_run - 1) in
  let s = setup w in
  let setup_s = (s.build_s +. s.env_s) :: extra in
  let peak = ref nan and gates = ref 0. and area = ref 0. in
  let rec loop walls elapsed =
    if walls <> [] && elapsed >= seconds then List.rev walls
    else begin
      let p = run_pass (reduce_untraced w ~seed) w s in
      if walls = [] then peak := peak_rss_mb ();
      ignore (check_pass v p);
      gates := mean_of gates_removed_pct p.outputs;
      area := mean_of area_removed_pct p.outputs;
      loop (p.wall_s :: walls) (elapsed +. p.wall_s)
    end
  in
  let walls = loop [] 0. in
  let n = List.length walls in
  let tail_note =
    match Stats.tail walls with
    | Some t ->
        Printf.sprintf "wall_s.tail = %.4f s (%s, %d samples beyond it, n=%d)"
          t.Stats.value (Stats.percentile_label t.Stats.permille) t.Stats.beyond n
    | None ->
        Printf.sprintf
          "wall_s.tail = n/a (no percentile has 10 samples beyond it at n=%d)" n
  in
  let metrics =
    [
      m "wall_s" (Stats.median walls) "s";
      m "setup_s" (Stats.median setup_s) "s";
      m "peak_rss_mb" !peak "MB";
      m "gates_removed_pct" !gates "%";
      m "area_removed_pct" !area "%";
    ]
  in
  let notes =
    [
      Printf.sprintf "wall_s: median of %d pass(es) of %d reduction(s) each: %s" n
        (List.length s.reductions)
        (String.concat " " (List.map (Printf.sprintf "%.3f") walls));
      tail_note;
      Printf.sprintf "setup_s: median of %d set-ups" (List.length setup_s);
      Printf.sprintf
        "peak_rss_mb: VmHWM of this process after its first pass; %s"
        (if clamp_jobs w.W.jobs > 1 then
           "the forked prover workers are not counted"
         else "no prover workers are forked");
      Printf.sprintf "failed_frac = %d/%d" v.failed v.attempted;
    ]
  in
  { metrics; notes; verdicts = v }

let layers =
  [ "lint"; "mine"; "refine"; "prove"; "rewire"; "audit"; "resynth";
    "baseline"; "validate" ]

(* Per-layer: one set-up, the traced replay, then an untraced pass of
   the same reductions with the same seed.  The replay runs first so that
   it starts from the same fresh process state as the end-to-end pass of
   a --trace 0 run; the untraced pass after it runs in a heap that has
   already grown, which biases trace.overhead_frac upwards.  The replay
   must prove the same number of invariants and return the same netlist
   as the pipeline. *)
let run_traced (w : W.t) ~seed =
  let v = { attempted = 0; failed = 0; equiv_s = 0.; messages = [] } in
  let spans = Spans.create () in
  let s = setup ~spans w in
  Obs.reset ();
  let k = blank_counts () in
  let traced = run_pass (reduce_traced spans k w ~seed) w s in
  let p95 =
    match Obs.histogram "sat.call_s" with Some h -> h.Obs.p95 | None -> 0.
  in
  let untraced = run_pass (reduce_untraced w ~seed) w s in
  ignore (check_pass v untraced);
  let traced_ok = check_pass v traced in
  (* a replay that diverges from the pipeline fails its reduction *)
  List.iter2
    (fun ((r, u), (_, t)) ok ->
      match (u, t) with
      | Ok u, Ok t when u.proved = t.proved && digest u = digest t -> ()
      | Ok u, Ok t ->
          if ok then v.failed <- v.failed + 1;
          v.messages <-
            v.messages
            @ [
                Printf.sprintf
                  "%s: replay diverges from the pipeline (proved %d vs %d, \
                   digest %s vs %s)"
                  r.W.label u.proved t.proved (digest u) (digest t);
              ]
      | _ -> ())
    (List.combine untraced.outputs traced.outputs)
    traced_ok;
  let self name = Spans.self_total spans name in
  let layer_s = List.map (fun l -> (l, self l)) layers in
  let covered = List.fold_left (fun a (_, x) -> a +. x) 0. layer_s in
  let per_s x secs = if secs > 0. then x /. secs else 0. in
  let ratio a b = if b > 0. then a /. b else 0. in
  let f = float_of_int in
  let metrics =
    [
      m "setup.build_s" s.build_s "s";
      m "setup.env_s" s.env_s "s";
    ]
    @ List.map (fun (l, x) -> m (l ^ ".s") x "s") layer_s
    @ [
        m "mine.cycles" k.mine_cycles "cycle";
        m "mine.cell_cycles_per_s" (per_s k.mine_cell_cycles (self "mine")) "cell-cycle/s";
        m "mine.candidates" (f k.mined) "count";
        m "refine.cycles" k.refine_cycles "cycle";
        m "refine.cell_cycles_per_s"
          (per_s k.refine_cell_cycles (self "refine")) "cell-cycle/s";
        m "refine.kill_ratio" (ratio (f (k.mined - k.refined)) (f k.mined)) "ratio";
        m "prove.sat_calls" k.sat_calls "count";
        m "prove.conflicts" k.conflicts "count";
        m "prove.propagations_per_s" (per_s k.propagations (self "prove")) "1/s";
        m "prove.sat_call_p95_s" p95 "s";
        m "prove.workers" (f k.workers) "count";
        m "prove.worker_idle_frac"
          (match k.idle_fracs with [] -> 0. | xs -> Stats.mean xs) "ratio";
        m "prove.cache_hit_ratio" (ratio (f k.cache_hits) (f k.cache_lookups)) "ratio";
        m "prove.proved" (f k.proved_n) "count";
        m "prove.proved_ratio" (ratio (f k.proved_n) (f k.refined)) "ratio";
        m "rewire.edits" (f k.edits) "count";
        m "resynth.cells_removed" (f k.resynth_removed) "count";
        m "validate.observations" (f k.observations) "count";
        m "validate.cycles_per_s" (per_s (f k.validate_cycles) (self "validate")) "cycle/s";
        m "check.equiv_s" v.equiv_s "s";
        m "trace.wall_s" traced.wall_s "s";
        m "trace.overhead_frac" (ratio (traced.wall_s -. untraced.wall_s) untraced.wall_s) "ratio";
        m "trace.other_s" (traced.wall_s -. covered) "s";
      ]
  in
  let share (l, x) =
    Printf.sprintf "share %-8s %5.1f%% of traced wall" l (100. *. ratio x traced.wall_s)
  in
  let notes =
    List.map share layer_s
    @ [
        Printf.sprintf "replay: %d reduction(s) traced, %d span(s) recorded"
          (List.length s.reductions) (List.length (Spans.spans spans));
        Printf.sprintf "failed_frac = %d/%d" v.failed v.attempted;
      ]
  in
  { metrics; notes; verdicts = v }

(* ---------------- output -------------------------------------------- *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let json_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun mt ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
          (json_number mt.value) mt.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)
