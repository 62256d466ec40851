(* Unit tests for the crash-safe run journal: round-trip replay,
   digest pinning, and torn-tail truncation.

   The journal is the write-ahead log behind `pdat reduce --resume`;
   these tests exercise it directly, below the pipeline, so the
   corruption cases can be constructed byte-exactly. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let rec rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then rm_rf p else Sys.remove p)
      (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pdat_journal_%d_%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let digest = String.make 32 'a'

let write_sample dir =
  let j = Pdat.Journal.create ~dir ~digest ~label:"test-run" in
  Pdat.Journal.record_stage j ~name:"mine" ~items:[ "C3:0"; "C7:1" ];
  Pdat.Journal.record_stage j ~name:"refine" ~items:[ "C3:0" ];
  Pdat.Journal.record_shard j ~fp:"f00d" ~proved:[ "C3:0" ];
  j

let test_roundtrip () =
  with_temp_dir (fun dir ->
      let j = write_sample dir in
      Pdat.Journal.record_stage j ~name:"prove" ~items:[ "C3:0" ];
      Pdat.Journal.record_end j ~ok:true;
      Pdat.Journal.close j;
      let j2, r = Pdat.Journal.resume ~dir ~digest in
      Pdat.Journal.close j2;
      check_str "label survives" "test-run" r.Pdat.Journal.r_label;
      check "end marker replayed" true r.Pdat.Journal.r_complete;
      check_int "no lines dropped" 0 r.Pdat.Journal.r_dropped_lines;
      check "stages in order" true
        (List.map fst r.Pdat.Journal.r_stages = [ "mine"; "refine"; "prove" ]);
      check "stage items survive" true
        (List.assoc "mine" r.Pdat.Journal.r_stages = [ "C3:0"; "C7:1" ]);
      check "shard checkpoint survives" true
        (r.Pdat.Journal.r_shards = [ ("f00d", [ "C3:0" ]) ]))

let test_digest_mismatch () =
  with_temp_dir (fun dir ->
      Pdat.Journal.close (write_sample dir);
      match Pdat.Journal.resume ~dir ~digest:(String.make 32 'b') with
      | _ -> Alcotest.fail "resume accepted a foreign journal"
      | exception Pdat.Journal.Mismatch _ -> ())

let test_missing_journal () =
  with_temp_dir (fun dir ->
      ignore (Sys.command (Printf.sprintf "mkdir -p %s" (Filename.quote dir)));
      match Pdat.Journal.resume ~dir ~digest with
      | _ -> Alcotest.fail "resume invented a journal"
      | exception Pdat.Journal.Mismatch _ -> ())

let journal_file dir = Filename.concat dir "journal.jsonl"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
  output_string oc s;
  close_out oc

let test_torn_tail_truncated () =
  with_temp_dir (fun dir ->
      Pdat.Journal.close (write_sample dir);
      let path = journal_file dir in
      let intact = read_file path in
      (* a crash mid-write: half a record, no trailing newline *)
      append_raw path "{\"crc\":\"0000";
      let j, r = Pdat.Journal.resume ~dir ~digest in
      check_int "torn line dropped" 1 r.Pdat.Journal.r_dropped_lines;
      check "valid prefix fully replayed" true
        (List.map fst r.Pdat.Journal.r_stages = [ "mine"; "refine" ]);
      check "file truncated back to the valid prefix" true
        (read_file path = intact);
      (* the resumed journal must still be appendable and replayable *)
      Pdat.Journal.record_stage j ~name:"prove" ~items:[];
      Pdat.Journal.close j;
      let j2, r2 = Pdat.Journal.resume ~dir ~digest in
      Pdat.Journal.close j2;
      check "append after truncation replays" true
        (List.map fst r2.Pdat.Journal.r_stages = [ "mine"; "refine"; "prove" ]))

let test_unterminated_valid_line () =
  with_temp_dir (fun dir ->
      Pdat.Journal.close (write_sample dir);
      let path = journal_file dir in
      (* chop the final newline: the last record is CRC-valid but
         unterminated, so an append would glue onto it — it must be
         treated as torn and truncated away *)
      let s = read_file path in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (String.length s - 1);
      Unix.close fd;
      let j, r = Pdat.Journal.resume ~dir ~digest in
      Pdat.Journal.close j;
      check_int "unterminated line dropped" 1 r.Pdat.Journal.r_dropped_lines;
      check_int "its shard checkpoint is gone" 0
        (List.length r.Pdat.Journal.r_shards))

let test_corrupt_middle_drops_suffix () =
  with_temp_dir (fun dir ->
      Pdat.Journal.close (write_sample dir);
      let path = journal_file dir in
      let s = read_file path in
      (* flip one byte inside the second record's body *)
      let lines = String.split_on_char '\n' s in
      let mutated =
        String.concat "\n"
          (List.mapi
             (fun i line ->
               if i = 1 && String.length line > 20 then begin
                 let b = Bytes.of_string line in
                 Bytes.set b 20
                   (if Bytes.get b 20 = 'x' then 'y' else 'x');
                 Bytes.to_string b
               end
               else line)
             lines)
      in
      let oc = open_out_bin path in
      output_string oc mutated;
      close_out oc;
      let j, r = Pdat.Journal.resume ~dir ~digest in
      Pdat.Journal.close j;
      (* replay stops at the first bad CRC: only the header survives *)
      check "suffix after the corrupt record dropped" true
        (r.Pdat.Journal.r_dropped_lines >= 1);
      check "stages after the damage are not replayed" true
        (List.length r.Pdat.Journal.r_stages < 3))

(* The names a journal and a proof cache file things under, pinned to
   hex strings recorded before the facts-digest salt was dropped from
   both: caches and journals written by earlier builds must still be
   found by this one. *)
let test_on_disk_names_pinned () =
  let config =
    { Netlist.Generate.n_inputs = 6; n_gates = 42; n_flops = 8; n_outputs = 6 }
  in
  let d = Netlist.Generate.random ~seed:13 ~config () in
  let monitor = Netlist.Design.num_nets d - 1 in
  check_str "scope digest, unconstrained" "4d056e58d591f7f5d955cf20a060e3e4"
    (Engine.Proof_cache.scope_digest d ~assume:Netlist.Design.net_true);
  check_str "scope digest, assumed net" "2f920943c45fb0ca9b58c6b8c3dfd975"
    (Engine.Proof_cache.scope_digest d ~assume:monitor);
  let cands =
    [
      Engine.Candidate.Const (5, false);
      Engine.Candidate.Const (9, true);
      Engine.Candidate.Implies { cell = 3; a = 7; b = 11 };
    ]
  in
  check_str "shard fingerprint" "48e1add2220f73351c1801a6829b233d"
    (Engine.Induction.shard_fingerprint cands);
  check_str "shard fingerprint is order-independent"
    "48e1add2220f73351c1801a6829b233d"
    (Engine.Induction.shard_fingerprint (List.rev cands));
  check_str "empty shard fingerprint" "d41d8cd98f00b204e9800998ecf8427e"
    (Engine.Induction.shard_fingerprint [])

let () =
  Random.self_init ();
  Alcotest.run "journal"
    [
      ( "journal",
        [
          Alcotest.test_case "create/record/resume round-trip" `Quick
            test_roundtrip;
          Alcotest.test_case "foreign digest refused" `Quick
            test_digest_mismatch;
          Alcotest.test_case "missing journal refused" `Quick
            test_missing_journal;
          Alcotest.test_case "torn tail truncated, append continues" `Quick
            test_torn_tail_truncated;
          Alcotest.test_case "CRC-valid but unterminated tail dropped" `Quick
            test_unterminated_valid_line;
          Alcotest.test_case "corrupt middle record drops the suffix" `Quick
            test_corrupt_middle_drops_suffix;
        ] );
      ( "formats",
        [
          Alcotest.test_case "cache scope and shard names unchanged" `Quick
            test_on_disk_names_pinned;
        ] );
    ]
