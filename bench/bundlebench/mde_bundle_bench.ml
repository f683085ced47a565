open Mde.Relational
module Mcdb = Mde.Mcdb
module Bundle = Mcdb.Bundle
module Rng = Mde.Prob.Rng

type timing = { seconds : float; alloc_bytes : float }

type result = {
  rows : int;
  reps : int;
  cells : int;
  naive_build : timing;
  naive_query : timing;
  bundle_build : timing;
  interp_query : timing;
  kernel_query : timing;
  kernel_select : timing;
  kernel_extend : timing;
  kernel_aggregate : timing;
  identical : bool;
}

let timed f =
  let a0 = Gc.allocated_bytes () in
  let t0 = Mde.Obs.Clock.wall () in
  let x = f () in
  let seconds = Mde.Obs.Clock.wall () -. t0 in
  (x, { seconds; alloc_bytes = Gc.allocated_bytes () -. a0 })

(* The demo SBP table at benchmark scale: [rows] patients, each drawing
   sbp ~ Normal(120, 15) — row-stable, so the bundle path applies. *)
let sbp_table rows =
  let patients =
    Table.create
      (Schema.of_list [ ("pid", Value.Tint); ("gender", Value.Tstring) ])
      (List.init rows (fun i ->
           [| Value.Int i; Value.String (if i mod 2 = 0 then "F" else "M") |]))
  in
  let param =
    Table.create
      (Schema.of_list [ ("mean", Value.Tfloat); ("std", Value.Tfloat) ])
      [ [| Value.Float 120.; Value.Float 15. |] ]
  in
  Mcdb.Stochastic_table.define ~name:"SBP_DATA"
    ~schema:
      (Schema.of_list
         [ ("pid", Value.Tint); ("gender", Value.Tstring); ("sbp", Value.Tfloat) ])
    ~driver:patients ~vg:Mcdb.Vg.normal
    ~params:(fun _ -> [ param ])
    ~combine:(fun d v -> [| d.(0); d.(1); v.(0) |])

(* Uncertain predicate + derived column + three aggregates: every kernel
   class (comparison, arithmetic, Avg/Max/Count) is on the timed path. *)
let where_ = Expr.(col "sbp" > float 100.)
let derive = [ ("risk", Value.Tfloat, Expr.((col "sbp" - float 120.) / float 15.)) ]

let aggs =
  [
    ("mean_sbp", Bundle.Avg (Expr.col "sbp"));
    ("max_risk", Bundle.Max (Expr.col "risk"));
    ("n", Bundle.Count);
  ]

let plan = { Bundle.where_ = Some where_; derive; group_keys = []; aggs }

let algebra_aggs =
  List.map
    (fun (name, agg) ->
      ( name,
        match agg with
        | Bundle.Count -> Algebra.Count
        | Bundle.Sum e -> Algebra.Sum e
        | Bundle.Avg e -> Algebra.Avg e
        | Bundle.Min e -> Algebra.Min e
        | Bundle.Max e -> Algebra.Max e ))
    aggs

(* Per-instance plan execution — the query the naive path repeats. The
   global group row is read back in [Bundle.aggregate]'s float
   conventions (Count as float, empty-group Avg/Min/Max as nan). *)
let naive_instance table =
  let out =
    Algebra.group_by ~keys:[] ~aggs:algebra_aggs
      (Algebra.extend derive (Algebra.select where_ table))
  in
  let row = (Table.rows out).(0) in
  Array.mapi
    (fun j _ ->
      match row.(j) with
      | Value.Int n -> float_of_int n
      | Value.Float f -> f
      | Value.Null -> nan
      | v -> Value.to_float v)
    (Array.of_list algebra_aggs)

let bits = Int64.bits_of_float
let float_eq a b = Int64.equal (bits a) (bits b)

(* [query] returns the single global group; index result as (agg, rep). *)
let samples_of_query = function
  | [ (_, per_agg) ] -> per_agg
  | results ->
    invalid_arg
      (Printf.sprintf "bundle-bench: expected one global group, got %d"
         (List.length results))

let identical3 ~reps naive interp kernel =
  let n_aggs = List.length aggs in
  let ok = ref true in
  for j = 0 to n_aggs - 1 do
    for r = 0 to reps - 1 do
      if
        not
          (float_eq naive.(r).(j) interp.(j).(r)
          && float_eq interp.(j).(r) kernel.(j).(r))
      then ok := false
    done
  done;
  !ok

let run ?(domains = 1) ~rows ~reps ~seed () =
  let st = sbp_table rows in
  let with_pool f =
    (* Shared pool: the domains live across runs, so spawn cost never
       lands inside a timed section. *)
    if domains > 1 then f (Some (Mde.Par.Pool.shared ~domains ()))
    else f None
  in
  with_pool (fun pool ->
      let instances, naive_build =
        timed (fun () ->
            Mcdb.Stochastic_table.instantiate_many ?pool st
              (Rng.create ~seed ()) reps)
      in
      let naive_samples, naive_query =
        timed (fun () -> Array.map naive_instance instances)
      in
      let bundle, bundle_build =
        timed (fun () ->
            Bundle.of_stochastic_table ?pool st (Rng.create ~seed ()) ~n_reps:reps)
      in
      let interp_samples, interp_query =
        timed (fun () ->
            samples_of_query (Bundle.query ~impl:`Interpreter bundle plan))
      in
      let kernel_samples, kernel_query =
        timed (fun () ->
            samples_of_query (Bundle.query ?pool ~impl:`Kernel bundle plan))
      in
      (* The same plan as three separate kernel sweeps, each timed: the
         per-sweep throughput, and a fourth path for the identity check.
         Each keeps the better of two runs: a single shot can absorb a
         one-off collector charge larger than the sweep itself. *)
      let best_of_two f =
        let x, a = timed f in
        let _, b = timed f in
        ( x,
          {
            seconds = Float.min a.seconds b.seconds;
            alloc_bytes = Float.min a.alloc_bytes b.alloc_bytes;
          } )
      in
      let selected, kernel_select =
        best_of_two (fun () -> Bundle.select ?pool ~impl:`Kernel where_ bundle)
      in
      let extended, kernel_extend =
        best_of_two (fun () -> Bundle.extend ?pool ~impl:`Kernel derive selected)
      in
      let composed_samples, kernel_aggregate =
        best_of_two (fun () ->
            samples_of_query (Bundle.aggregate ?pool ~impl:`Kernel aggs extended))
      in
      {
        rows;
        reps;
        cells = rows * reps;
        naive_build;
        naive_query;
        bundle_build;
        interp_query;
        kernel_query;
        kernel_select;
        kernel_extend;
        kernel_aggregate;
        identical =
          identical3 ~reps naive_samples interp_samples kernel_samples
          && identical3 ~reps naive_samples kernel_samples composed_samples;
      })

let cells_per_second result t =
  if t.seconds > 0. then float_of_int result.cells /. t.seconds else infinity

let speedup_vs_interp r =
  cells_per_second r r.kernel_query /. cells_per_second r r.interp_query

let alloc_reduction_vs_interp r =
  if r.kernel_query.alloc_bytes > 0. then
    r.interp_query.alloc_bytes /. r.kernel_query.alloc_bytes
  else infinity

let gate r =
  if not r.identical then Error "the three execution paths disagree"
  else if speedup_vs_interp r < 3. then
    Error
      (Printf.sprintf "columnar speedup %.1fx below the 3x acceptance floor"
         (speedup_vs_interp r))
  else if alloc_reduction_vs_interp r < 5. then
    Error
      (Printf.sprintf "allocation reduction %.1fx below the 5x acceptance floor"
         (alloc_reduction_vs_interp r))
  else Ok ()

let print r =
  let row label t =
    Printf.printf "  %-18s %10.4f s  %12.3g cells/s  %14.3g bytes\n" label t.seconds
      (cells_per_second r t) t.alloc_bytes
  in
  Printf.printf "bundle-bench: %d rows x %d reps = %d cells\n\n" r.rows r.reps
    r.cells;
  Printf.printf "  %-18s %12s  %14s  %14s\n" "phase" "wall" "throughput" "allocated";
  row "naive build" r.naive_build;
  row "naive query" r.naive_query;
  row "bundle build" r.bundle_build;
  row "interpreted query" r.interp_query;
  row "columnar query" r.kernel_query;
  row "  select sweep" r.kernel_select;
  row "  extend sweep" r.kernel_extend;
  row "  aggregate sweep" r.kernel_aggregate;
  Printf.printf "\n  columnar vs interpreted: %.1fx throughput, %.1fx less allocation\n"
    (speedup_vs_interp r)
    (alloc_reduction_vs_interp r);
  Printf.printf "  outputs bit-identical across all three paths: %b\n" r.identical

let emit ?(file = "BENCH_bundle.json") ?(domains = 1) ~seed r =
  let open Mde_bench_emit in
  append ~file ~name:"bundle-kernel"
    [
      ("rows", Int r.rows);
      ("reps", Int r.reps);
      ("cells", Int r.cells);
      ("seed", Int seed);
      ("domains", Int domains);
      ("naive_build_s", Float r.naive_build.seconds);
      ("naive_query_s", Float r.naive_query.seconds);
      ("naive_query_alloc_bytes", Float r.naive_query.alloc_bytes);
      ("naive_query_cells_per_s", Float (cells_per_second r r.naive_query));
      ("bundle_build_s", Float r.bundle_build.seconds);
      ("interp_query_s", Float r.interp_query.seconds);
      ("interp_query_alloc_bytes", Float r.interp_query.alloc_bytes);
      ("interp_query_cells_per_s", Float (cells_per_second r r.interp_query));
      ("kernel_query_s", Float r.kernel_query.seconds);
      ("kernel_query_alloc_bytes", Float r.kernel_query.alloc_bytes);
      ("kernel_query_cells_per_s", Float (cells_per_second r r.kernel_query));
      ("kernel_select_s", Float r.kernel_select.seconds);
      ("kernel_select_cells_per_s", Float (cells_per_second r r.kernel_select));
      ("kernel_extend_s", Float r.kernel_extend.seconds);
      ("kernel_extend_cells_per_s", Float (cells_per_second r r.kernel_extend));
      ("kernel_aggregate_s", Float r.kernel_aggregate.seconds);
      ("kernel_aggregate_cells_per_s", Float (cells_per_second r r.kernel_aggregate));
      ("kernel_speedup_vs_interp", Float (speedup_vs_interp r));
      ("kernel_alloc_reduction_vs_interp", Float (alloc_reduction_vs_interp r));
      ("identical_output", Bool r.identical);
    ]
