(* The --bundle experiment: naive vs interpreted vs columnar execution of
   one plan, recorded in bench/BENCH_bundle.json via the shared
   Mde_bundle_bench harness (also behind [mde_cli bundle-bench]). *)

module B = Mde_bundle_bench

let run ?(domains = 1) ?(rows = 2000) ?(reps = 200) ?(seed = 42) () =
  Util.section "BUNDLE"
    (Printf.sprintf "columnar tuple-bundle engine, %d rows x %d reps (%d domains)"
       rows reps domains);
  let result = B.run ~domains ~rows ~reps ~seed () in
  B.print result;
  let path = B.emit ~domains ~seed result in
  Util.note "recorded in %s" path;
  match B.gate result with
  | Ok () -> ()
  | Error msg ->
    Util.note "FAIL: %s" msg;
    exit 1
