(* The relational workload: a closed loop over a fixed analytics mix on
   the columnar engine. No serving layer runs; [Columnar], [Kernel],
   [Keycode], [Plan] and the pool do all of the work. *)

open Common
open Mde.Relational
module Rng = Mde.Prob.Rng
module Pool = Mde.Par.Pool

let fact_rows = 200_000
let dim_rows = 1_000
let groups = 16

(* Simulated output rows: a float auxiliary key, a small grouping key, a
   foreign key into a 1000-row dimension and a float measurement. *)
let make_inputs ~seed =
  let rng = Rng.create ~seed () in
  let fact =
    Table.of_rows
      (Schema.of_list
         [ ("k", Value.Tfloat); ("g", Value.Tint); ("d", Value.Tint); ("v", Value.Tfloat) ])
      (Array.init fact_rows (fun _ ->
           [|
             Value.Float (Rng.float_range rng 0. 8.);
             Value.Int (Rng.int rng groups);
             Value.Int (Rng.int rng dim_rows);
             Value.Float (Rng.float_range rng (-1.) 1.);
           |]))
  in
  let dim =
    Table.of_rows
      (Schema.of_list [ ("did", Value.Tint); ("dname", Value.Tstring); ("dw", Value.Tfloat) ])
      (Array.init dim_rows (fun i ->
           [|
             Value.Int i;
             Value.String (Printf.sprintf "site-%03d" (Rng.int rng 200));
             Value.Float (Rng.float rng);
           |]))
  in
  let gdim =
    Table.of_rows
      (Schema.of_list [ ("gid", Value.Tint); ("glabel", Value.Tstring) ])
      (Array.init groups (fun i -> [| Value.Int i; Value.String (Printf.sprintf "g%02d" i) |]))
  in
  let catalog = Catalog.create () in
  Catalog.register catalog "fact" fact;
  Catalog.register catalog "dim" dim;
  Catalog.register catalog "gdim" gdim;
  (fact, dim, catalog)

let pred = Expr.(col "v" > float (-0.5) && col "k" < float 6.)
let defs = [ ("risk", Value.Tfloat, Expr.(((col "v" - float 0.1) * float 2.) + col "k")) ]

let aggs =
  [
    ("n", Algebra.Count);
    ("total", Algebra.Sum (Expr.col "v"));
    ("mean_risk", Algebra.Avg (Expr.col "risk"));
    ("max_risk", Algebra.Max (Expr.col "risk"));
  ]

let join_on = [ ("d", "did") ]
let order_keys = [ "g"; "d" ]
let distinct_cols = [ "g"; "d" ]

(* Two joins over a selective scan: fact ⋈ dim ⋈ gdim. *)
let plan =
  Plan.(
    join ~on:[ ("g", "gid") ]
      (join ~on:join_on (select Expr.(col "v" > float 0.5) (scan "fact")) (scan "dim"))
      (scan "gdim"))

type query = Pipeline | Join | Order | Distinct | Plan_join

let mix = [| Pipeline; Join; Order; Distinct; Plan_join |]

let query_name = function
  | Pipeline -> "mix.pipeline"
  | Join -> "mix.join"
  | Order -> "mix.order"
  | Distinct -> "mix.distinct"
  | Plan_join -> "mix.plan"

(* Rows each query reads from its inputs. *)
let input_rows = function
  | Pipeline | Order | Distinct -> fact_rows
  | Join -> fact_rows + dim_rows
  | Plan_join -> fact_rows + dim_rows + groups

type state = {
  fact : Table.t;
  dim : Table.t;
  catalog : Catalog.t;
  cfact : Columnar.t;
  cdim : Columnar.t;
}

(* Allocation per columnar call, recorded in the traced run only. *)
let allocs : (string, float list) Hashtbl.t = Hashtbl.create 8

let layer name f =
  if not !Trace.on then f ()
  else begin
    let a0 = Gc.allocated_bytes () in
    let x = span name f in
    let mb = (Gc.allocated_bytes () -. a0) /. (1024. *. 1024.) in
    Hashtbl.replace allocs name (mb :: Option.value ~default:[] (Hashtbl.find_opt allocs name));
    x
  end

(* One query on the engine under test; the result is left columnar
   except where the operator's output is a row table. *)
let columnar_query pool s = function
  | Pipeline ->
    let selected = layer "columnar.select" (fun () -> Columnar.select ~pool pred s.cfact) in
    let extended = layer "columnar.extend" (fun () -> Columnar.extend ~pool defs selected) in
    `C (layer "columnar.group" (fun () -> Columnar.group_by ~pool ~keys:[ "g" ] ~aggs extended))
  | Join -> `C (layer "columnar.join" (fun () -> Columnar.equi_join ~pool ~on:join_on s.cfact s.cdim))
  | Order -> `C (layer "columnar.order" (fun () -> Columnar.order_by order_keys s.cfact))
  | Distinct ->
    `C
      (layer "columnar.distinct" (fun () ->
           Columnar.distinct ~pool (Columnar.project distinct_cols s.cfact)))
  | Plan_join -> `T (span "plan.execute" (fun () -> Plan.execute ~pool s.catalog plan))

(* The row-algebra oracle for the same query. *)
let oracle s = function
  | Pipeline -> Algebra.group_by ~keys:[ "g" ] ~aggs (Algebra.extend defs (Algebra.select pred s.fact))
  | Join -> Algebra.equi_join ~on:join_on s.fact s.dim
  | Order -> Algebra.order_by order_keys s.fact
  | Distinct -> Algebra.distinct (Algebra.project distinct_cols s.fact)
  | Plan_join -> Plan.execute_rows s.catalog plan

(* A digest of a table's schema and every cell, floats by their bits, so
   results compare bit for bit without keeping 200k-row oracles alive. *)
let digest t =
  let columns = List.map (fun c -> (c.Schema.name, c.Schema.ty)) (Schema.columns (Table.schema t)) in
  Digest.string (Marshal.to_string (columns, Table.rows t) [ Marshal.No_sharing ])

let to_table = function `C c -> Columnar.to_table c | `T t -> t
let row_count = function `C c -> Columnar.row_count c | `T t -> Table.cardinality t

(* A fresh set-up, timed on its own, every this many passes, so the
   set-up samples spread over the run. *)
let passes_per_setup = 4

let pool_counts pool =
  let st = Pool.stats pool in
  [| st.Pool.batches; st.Pool.seq_batches; Array.fold_left ( + ) 0 st.Pool.steals |]

let run ~seed ~seconds ~traced =
  let pool = Pool.create ~domains:(domains ()) () in
  let set_up () =
    let fact, dim, catalog = make_inputs ~seed in
    let s = { fact; dim; catalog; cfact = Columnar.of_table fact; cdim = Columnar.of_table dim } in
    (* Warm-up: one pass of the mix trains the pool's crossover
       estimates, so the timed loop measures steady state. *)
    Array.iter (fun q -> ignore (columnar_query pool s q)) mix;
    s
  in
  let setups = ref [] in
  let set_up_timed () =
    let s, t = timed_setup set_up in
    setups := t :: !setups;
    settle ();
    s
  in
  let state = ref (Some (set_up_timed ())) in
  let s = Option.get !state in
  let expected =
    Array.map
      (fun q ->
        let t = oracle s q in
        (Table.cardinality t, digest t))
      mix
  in
  let first = Array.map (fun q -> digest (to_table (columnar_query pool s q))) mix in
  let counts_ok = ref true in
  Hashtbl.reset allocs;
  (* Every set-up rebuilds the same inputs from the same seed, so every
     pass must still match the oracle. *)
  let pool_work = Array.make 3 0 in
  let passes = ref [] and n_passes = ref 0 and rows = ref 0 and queries = ref 0 and busy = ref 0. in
  let last = Array.make (Array.length mix) None in
  settle ();
  measure ~traced (fun () ->
      while !busy < seconds || !n_passes = 0 do
        if !n_passes > 0 && !n_passes mod passes_per_setup = 0 then begin
          state := None;
          Array.fill last 0 (Array.length last) None;
          state := Some (set_up_timed ())
        end;
        let s = Option.get !state in
        let p0 = pool_counts pool in
        let t0 = now () in
        Array.iteri
          (fun i q ->
            let out = span (query_name q) (fun () -> columnar_query pool s q) in
            rows := !rows + input_rows q;
            incr queries;
            if row_count out <> fst expected.(i) then counts_ok := false;
            last.(i) <- Some out)
          mix;
        let dt = now () -. t0 in
        Array.iteri (fun i c -> pool_work.(i) <- pool_work.(i) + c - p0.(i)) (pool_counts pool);
        busy := !busy +. dt;
        passes := (dt *. 1e3) :: !passes;
        incr n_passes
      done);
  let s = Option.get !state in
  let heap = peak_heap_mb () in
  let passes = Array.of_list !passes in
  let layers =
    if not traced then []
    else begin
      let ms name = Array.map (fun s -> s *. 1e3) (Trace.durations name) in
      let per_call name =
        let d = ms ("columnar." ^ name) in
        let a = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt allocs ("columnar." ^ name))) in
        [
          metric ~samples:(Array.length d) ("columnar." ^ name ^ "_ms") "ms" (mean d);
          metric ~samples:(Array.length a) ("columnar." ^ name ^ "_alloc_mb") "MB" (mean a);
        ]
      in
      (* Keycode, timed directly on the order/distinct key columns. *)
      let int_column name =
        Column.of_ints ~det:true ~reps:1
          (Array.map Value.to_int (Table.column s.fact name))
      in
      let keys = [| int_column "g"; int_column "d" |] in
      let probes = 5 in
      let time f =
        Array.init probes (fun _ ->
            let t0 = now () in
            ignore (Sys.opaque_identity (f ()));
            (now () -. t0) *. 1e3)
      in
      let encode =
        match Keycode.of_columns [ keys ] with
        | Some enc -> time (fun () -> Keycode.encode ~pool enc ~side:0)
        | None -> [||]
      in
      let sort_perm = time (fun () -> Keycode.sort_perm keys ~n_rows:fact_rows) in
      let plan_ms = ms "plan.execute" in
      List.concat_map per_call [ "select"; "extend"; "group"; "join"; "order"; "distinct" ]
      @ [
          metric ~samples:(Array.length encode) "keycode.encode_ms" "ms" (mean encode);
          metric ~samples:probes "keycode.sort_perm_ms" "ms" (mean sort_perm);
          metric ~samples:(Array.length plan_ms) "plan.execute_ms" "ms" (mean plan_ms);
          metric "pool.batches" "count" (float_of_int pool_work.(0));
          metric "pool.seq_batches" "count" (float_of_int pool_work.(1));
          metric "pool.steals" "count" (float_of_int pool_work.(2));
        ]
    end
  in
  (* Outputs of the first and the last timed pass, bit for bit against
     the row oracle; every pass's cardinality was checked in the loop. *)
  let identical = ref true in
  Array.iteri
    (fun i (_, d) ->
      if first.(i) <> d then identical := false;
      match last.(i) with
      | Some out -> if digest (to_table out) <> d then identical := false
      | None -> identical := false)
    expected;
  Pool.shutdown pool;
  let checks = [ ("relational.oracle_identical", !identical); ("relational.cardinality", !counts_ok) ] in
  {
    correct = List.for_all snd checks;
    unit_cost = !busy /. float_of_int !queries;
    attempted = !queries;
    failed = 0;
    checks;
    metrics =
      [
        setup_metric !setups;
        metric ~samples:(Array.length passes) "p50_ms" "ms" (percentile passes 50.);
        metric ~samples:(Array.length passes) "tail_ms" "ms" (percentile passes 75.);
        metric ~samples:!queries "work_per_s" "1/s" (float_of_int !rows /. !busy);
        metric "peak_heap_mb" "MB" heap;
      ]
      @ layers;
  }
