(* Tests for the end-to-end reduction benchmark: metric naming, the
   median and tail-percentile math on fixed vectors, the span recorder,
   and a seconds-long smoke run of every harness path on a generated
   netlist. *)

open E2ebench

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-12))
let check_str = Alcotest.(check string)

let test_valid_name () =
  List.iter
    (fun n -> check n true (Stats.valid_name n))
    [ "wall_s"; "wall_s.tail"; "prove.sat_call_p95_s"; "1x"; "a-b.c_d";
      String.make 64 'a' ];
  List.iter
    (fun n -> check n false (Stats.valid_name n))
    [ ""; "_x"; ".a"; "-a"; "a b"; "a/b"; "a%"; "ä"; String.make 65 'a' ]

let test_median () =
  check_float "odd" 2. (Stats.median [ 3.; 1.; 2. ]);
  check_float "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  check_float "single" 7. (Stats.median [ 7. ]);
  check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  check "empty raises" true
    (match Stats.median [] with _ -> false | exception Invalid_argument _ -> true)

let ramp n = List.init n (fun i -> float_of_int (n - i))

let tail_of n =
  match Stats.tail (ramp n) with
  | Some t -> Printf.sprintf "%s=%g+%d" (Stats.percentile_label t.Stats.permille)
                t.Stats.value t.Stats.beyond
  | None -> "none"

let test_tail () =
  check_str "19 samples: none" "none" (tail_of 19);
  check_str "1 sample: none" "none" (tail_of 1);
  check_str "20 samples: median" "p50=10+10" (tail_of 20);
  check_str "40 samples: p75" "p75=30+10" (tail_of 40);
  check_str "100 samples: p90" "p90=90+10" (tail_of 100);
  check_str "200 samples: p95" "p95=190+10" (tail_of 200);
  check_str "1000 samples: p99" "p99=990+10" (tail_of 1000);
  check_str "10000 samples: p99.9" "p99.9=9990+10" (tail_of 10000);
  check_int "rank p95 of 20 is 19" 19 (Stats.nearest_rank ~permille:950 20)

let test_spans () =
  let t = Spans.create () in
  Spans.with_span t "outer" (fun () ->
      Spans.with_span t "a" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
      Spans.with_span t "b" (fun () -> ()));
  (try Spans.with_span t "raises" (fun () -> failwith "x") with Failure _ -> ());
  let spans = Spans.spans t in
  check_int "four spans" 4 (List.length spans);
  let find n = List.find (fun s -> s.Spans.name = n) spans in
  let outer = find "outer" in
  check "children point at outer" true
    ((find "a").Spans.parent = Some outer.Spans.id
    && (find "b").Spans.parent = Some outer.Spans.id);
  check "raising span is a root" true ((find "raises").Spans.parent = None);
  check_float "outer self = duration - children"
    (Spans.duration outer -. Spans.duration (find "a") -. Spans.duration (find "b"))
    (Spans.self_total t "outer");
  check_float "self times add up to the root spans"
    (List.fold_left
       (fun a s -> if s.Spans.parent = None then a +. Spans.duration s else a)
       0. spans)
    (List.fold_left (fun a n -> a +. Spans.self_total t n) 0.
       [ "outer"; "a"; "b"; "raises" ])

(* every metric name the harness prints is declared in BENCHMARK.json *)
let declared =
  lazy
    (let path = "../../BENCHMARK.json" in
     In_channel.with_open_text path In_channel.input_all)

let declared_name n =
  let needle = Printf.sprintf "\"name\": %S" n in
  let s = Lazy.force declared in
  let ln = String.length needle in
  let rec go i = i + ln <= String.length s
                 && (String.sub s i ln = needle || go (i + 1)) in
  go 0

let names r = List.map (fun m -> m.Harness.name) r.Harness.metrics

let assert_report label r =
  let v = r.Harness.verdicts in
  List.iter print_endline v.Harness.messages;
  check (label ^ ": attempted") true (v.Harness.attempted >= 2);
  check_int (label ^ ": failed") 0 v.Harness.failed;
  List.iter
    (fun n ->
      check (label ^ ": valid " ^ n) true (Stats.valid_name n);
      check (label ^ ": declared " ^ n) true (declared_name n))
    (names r);
  List.iter
    (fun m -> check (label ^ ": finite " ^ m.Harness.name) true
                (Float.is_finite m.Harness.value))
    r.Harness.metrics;
  let line =
    Harness.json_line ~correct:true ~attempted:v.Harness.attempted
      ~failed:v.Harness.failed r.Harness.metrics
  in
  check (label ^ ": json shape") true
    (String.starts_with ~prefix:"{\"correct\": true, \"attempted\": " line
    && String.ends_with ~suffix:"}}}" line)

let test_smoke_untraced () =
  let r = Harness.run_untraced Workload.smoke ~seed:3 ~seconds:0.05 in
  assert_report "untraced" r;
  check "end-to-end names" true
    (names r = [ "wall_s"; "setup_s"; "peak_rss_mb"; "gates_removed_pct";
                 "area_removed_pct" ])

(* a run of several passes checks every output of every pass *)
let test_smoke_passes () =
  let r = Harness.run_untraced Workload.smoke ~seed:3 ~seconds:0.3 in
  let v = r.Harness.verdicts and k = List.length Workload.smoke.Workload.subsets in
  check "several passes" true (v.Harness.attempted >= 2 * k);
  check_int "whole passes" 0 (v.Harness.attempted mod k);
  check_int "failed" 0 v.Harness.failed

let test_smoke_traced () =
  let r = Harness.run_traced Workload.smoke ~seed:3 in
  assert_report "traced" r;
  let get n = (List.find (fun m -> m.Harness.name = n) r.Harness.metrics).Harness.value in
  check "the pool forked" true (get "prove.workers" >= 1.);
  check "the shared cache hit" true (get "prove.cache_hit_ratio" > 0.);
  check "layers cover the traced wall" true
    (get "trace.other_s" >= 0. && get "trace.other_s" < 0.5 *. get "trace.wall_s")

(* the independent check refuses a reduced netlist with one cell
   complemented *)
let test_check_catches_wrong_output () =
  let w = Workload.smoke in
  let s = Harness.setup w in
  let p = Harness.run_pass (Harness.reduce_untraced w ~seed:3) w s in
  let r, o = List.hd p.Harness.outputs in
  let o = match o with Ok o -> o | Error e -> Alcotest.fail e in
  check "clean output passes" true (fst (Harness.check r (Ok o)) = []);
  match
    Pdat.Faults.corrupt_reduced
      { Pdat.Faults.kind = Pdat.Faults.Perturb_cell; seed = 7 }
      ~reduced:o.Harness.reduced
  with
  | None -> Alcotest.fail "no cell to perturb"
  | Some (bad, _) ->
      check "perturbed output fails" true
        (fst (Harness.check r (Ok { o with Harness.reduced = bad })) <> []);
      check "a raise fails" true (fst (Harness.check r (Error "boom")) <> [])

let () =
  Alcotest.run "e2ebench"
    [
      ( "stats",
        [
          Alcotest.test_case "metric names" `Quick test_valid_name;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail percentile" `Quick test_tail;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_spans ]);
      ( "smoke",
        [
          Alcotest.test_case "untraced" `Quick test_smoke_untraced;
          Alcotest.test_case "several passes" `Quick test_smoke_passes;
          Alcotest.test_case "traced replay" `Quick test_smoke_traced;
          Alcotest.test_case "check catches a wrong output" `Quick
            test_check_catches_wrong_output;
        ] );
    ]
