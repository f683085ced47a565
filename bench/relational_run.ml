(* The --relational experiment: row algebra vs interpreted vs compiled
   columnar execution of one select/extend/group pipeline, then packed vs
   boxed keyed operators, recorded in bench/BENCH_relational.json and
   gated via the shared Mde_relational_bench harness (also behind
   [mde_cli relational-bench]). *)

module B = Mde_relational_bench

let run ?(domains = 1) ?(rows = 200_000) ?(seed = 42) () =
  Util.section "RELATIONAL"
    (Printf.sprintf "unified columnar substrate, %d rows (%d domains)" rows domains);
  let result = B.run ~domains ~rows ~seed () in
  B.print result;
  let path = B.emit ~domains ~seed result in
  Util.note "recorded in %s" path;
  match B.gate result with
  | Ok () -> ()
  | Error msg ->
    Util.note "FAIL: %s" msg;
    exit 1
