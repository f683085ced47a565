(* The benchmark entry point.

   perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>

   With --trace 0 it measures the workload untraced and prints every
   end-to-end metric. With --trace 1 it measures the workload three times,
   each for a third of the time: untraced, then with spans around every
   call into a library layer, then untraced again, so the tracing
   overhead is not confounded with the order of the runs. It prints every
   per-layer metric and writes the spans as Chrome trace-event JSON under
   .bench_out/. The last line
   of standard output is one JSON object; the exit code is 1 when any
   output or accounting check fails. *)

open Common

let workloads =
  [
    ("serve-cold", Serve_wl.run);
    ("relational-batch", Relational_wl.run);
    ("epidemic-intervene", Epidemic_wl.run);
  ]

let end_to_end = [ "setup_s"; "p50_ms"; "tail_ms"; "work_per_s"; "peak_heap_mb" ]

(* Every per-layer metric, with its unit. A workload that does not
   exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("shard.route_us", "us");
    ("shard.imbalance", "ratio");
    ("target.submit_us.p50", "us");
    ("target.submit_us.p99", "us");
    ("cache.hit_ratio", "ratio");
    ("cache.evictions", "count");
    ("cache.admit_reject_ratio", "ratio");
    ("scheduler.queue_wait_ms.p50", "ms");
    ("scheduler.queue_wait_ms.p99", "ms");
    ("scheduler.batch_size", "count");
    ("scheduler.shed", "count");
    ("scheduler.failed", "count");
    ("server.drain_ms", "ms");
    ("server.exec_ms.mcdb_mean", "ms");
    ("server.exec_ms.mcdb_tail", "ms");
    ("server.exec_ms.chain_mean", "ms");
    ("pool.batches", "count");
    ("pool.seq_batches", "count");
    ("pool.steals", "count");
    ("columnar.select_ms", "ms");
    ("columnar.extend_ms", "ms");
    ("columnar.group_ms", "ms");
    ("columnar.join_ms", "ms");
    ("columnar.order_ms", "ms");
    ("columnar.distinct_ms", "ms");
    ("columnar.select_alloc_mb", "MB");
    ("columnar.extend_alloc_mb", "MB");
    ("columnar.group_alloc_mb", "MB");
    ("columnar.join_alloc_mb", "MB");
    ("columnar.order_alloc_mb", "MB");
    ("columnar.distinct_alloc_mb", "MB");
    ("keycode.encode_ms", "ms");
    ("keycode.sort_perm_ms", "ms");
    ("plan.execute_ms", "ms");
    ("indemics.step_ms", "ms");
    ("indemics.catalog_ms", "ms");
    ("indemics.intervene_ms", "ms");
    ("query.run_ms", "ms");
    ("driver.late_ms", "ms");
    ("unattributed_ratio", "ratio");
    ("trace.overhead_ratio", "ratio");
  ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload <"
    ^ String.concat "|" (List.map fst workloads)
    ^ "> --seed <n> --seconds <s> --trace <0|1>");
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: rest ->
      workload := Some w;
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string_opt s;
      go rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0. -> (
    match List.assoc_opt w workloads with
    | Some run -> (w, run, seed, seconds, trace)
    | None -> usage ())
  | _ -> usage ()

let find name metrics = List.find_opt (fun m -> m.name = name) metrics

let trace_path workload =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir ("trace-" ^ workload ^ ".json")

let () =
  let workload, run, seed, seconds, trace = parse Sys.argv in
  Printf.eprintf "perfbench: workload=%s seed=%d seconds=%g trace=%b nproc=%d domains=%d\n%!"
    workload seed seconds trace (nproc ()) (domains ());
  let outcome, metrics =
    if not trace then begin
      let o = run ~seed ~seconds ~traced:false in
      (o, List.map (fun name -> Option.get (find name o.metrics)) end_to_end)
    end
    else begin
      let third = seconds /. 3. in
      let before = run ~seed ~seconds:third ~traced:false in
      let traced = run ~seed ~seconds:third ~traced:true in
      let path = trace_path workload in
      Trace.write path;
      Printf.eprintf "perfbench: %d spans (%d dropped) written to %s\n%!" !Trace.count
        !Trace.dropped path;
      let unattributed =
        metric ~samples:!Trace.count "unattributed_ratio" "ratio" (Trace.unattributed_ratio ())
      in
      let after = run ~seed ~seconds:third ~traced:false in
      let untraced_cost = (before.unit_cost +. after.unit_cost) /. 2. in
      let derived =
        [
          unattributed;
          metric "trace.overhead_ratio" "ratio" ((traced.unit_cost /. untraced_cost) -. 1.);
        ]
      in
      let all = traced.metrics @ derived in
      let runs = [ before; traced; after ] in
      ( {
          traced with
          correct = List.for_all (fun o -> o.correct) runs;
          attempted = List.fold_left (fun n o -> n + o.attempted) 0 runs;
          failed = List.fold_left (fun n o -> n + o.failed) 0 runs;
          checks = List.concat_map (fun o -> o.checks) runs;
        },
        List.map
          (fun (name, unit_) ->
            match find name all with Some m -> m | None -> metric ~samples:0 name unit_ 0.)
          per_layer )
    end
  in
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let checks = outcome.checks @ [ ("metrics.finite", finite) ] in
  let correct = List.for_all snd checks in
  List.iter
    (fun (name, ok) -> Printf.printf "check  %-32s %s\n" name (if ok then "ok" else "MISMATCH"))
    checks;
  List.iter
    (fun m -> Printf.printf "metric %-32s %14.6g %-6s n=%d\n" m.name m.value m.unit_ m.samples)
    metrics;
  let json_metric m =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
      (if Float.is_finite m.value then m.value else 0.)
      m.unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    outcome.attempted outcome.failed
    (String.concat ", " (List.map json_metric metrics));
  if not correct then exit 1
