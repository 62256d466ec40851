(* End-to-end reduction benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --workload all --seed N --seconds S

   With --trace 0 it times complete untraced reductions and prints the
   end-to-end metrics; with --trace 1 it replays the same reductions
   layer by layer and prints the per-layer metrics.  Each metric is
   printed on its own line with its unit, and the last line of standard
   output is one JSON object with the keys correct, attempted, failed
   and metrics.  The exit code is 0 only when every output passed its
   check.  [--workload all] runs every workload of the suite, end-to-end
   and then per-layer, each in a forked child (so that peak RSS is per
   workload); its last line sums the runs' verdicts and names each
   metric "<workload>.<metric>". *)

open E2ebench

let usage =
  Printf.sprintf "main.exe --workload %s|all --seed N --seconds S --trace 0|1"
    (String.concat "|" (List.map (fun w -> w.Workload.name) Workload.suite))

let run (w : Workload.t) ~seed ~seconds ~trace =
  Printf.printf "workload=%s seed=%d seconds=%g trace=%d cores=%d\n%!"
    w.Workload.name seed seconds trace (Obs.Hw.online_cores ());
  let r =
    if trace = 1 then Harness.run_traced w ~seed
    else Harness.run_untraced w ~seed ~seconds
  in
  List.iter print_endline r.Harness.notes;
  List.iter
    (fun (mt : Harness.metric) ->
      assert (Stats.valid_name mt.Harness.name);
      Printf.printf "metric %-26s %.6g %s\n" mt.Harness.name mt.Harness.value
        mt.Harness.unit_)
    r.Harness.metrics;
  List.iter
    (fun msg -> Printf.printf "CHECK FAILED %s\n" msg)
    r.Harness.verdicts.Harness.messages;
  r

let print_result ~attempted ~failed metrics =
  print_endline
    (Harness.json_line ~correct:(failed = 0) ~attempted ~failed metrics)

(* One run in a forked child, which sends back its verdict counts and
   metrics; a child that dies sends nothing and counts as one failed
   reduction. *)
let run_forked w ~seed ~seconds ~trace =
  Option.value ~default:(1, 1, [])
    (Harness.in_child (fun () ->
         let r = run w ~seed ~seconds ~trace in
         let v = r.Harness.verdicts in
         ((v.Harness.attempted, v.Harness.failed, r.Harness.metrics)
           : int * int * Harness.metric list)))

let run_all ~seed ~seconds =
  let results =
    List.concat_map
      (fun (w : Workload.t) ->
        List.map
          (fun trace ->
            let attempted, failed, metrics = run_forked w ~seed ~seconds ~trace in
            ( attempted,
              failed,
              List.map
                (fun (mt : Harness.metric) ->
                  { mt with Harness.name = w.Workload.name ^ "." ^ mt.Harness.name })
                metrics ))
          [ 0; 1 ])
      Workload.suite
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let failed = sum (fun (_, f, _) -> f) in
  print_result ~attempted:(sum (fun (a, _, _) -> a)) ~failed
    (List.concat_map (fun (_, _, ms) -> ms) results);
  exit (if failed = 0 then 0 else 1)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured pass time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let seed =
    match !seed with
    | Some s -> s
    | None ->
        prerr_endline "--seed is required";
        exit 2
  in
  if !workload = "all" then run_all ~seed ~seconds:!seconds;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S\nusage: %s\n" !workload usage;
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  let r = run w ~seed ~seconds:!seconds ~trace:!trace in
  let v = r.Harness.verdicts in
  print_result ~attempted:v.Harness.attempted ~failed:v.Harness.failed
    r.Harness.metrics;
  exit (if v.Harness.failed = 0 then 0 else 1)
