open Mde_relational
module Bitset = Column.Bitset

type t = {
  schema : Schema.t;
  n_reps : int;
  n_rows : int;
  columns : Column.t array;
  presence : Bitset.t;
}

type impl = Impl.t

let schema t = t.schema
let n_reps t = t.n_reps
let row_count t = t.n_rows
let survivors t = Bitset.popcount t.presence
let row_survivors t i = Bitset.row_popcount t.presence i
let realize_row t i r = Array.map (fun c -> Column.value c i r) t.columns
let present t i r = Bitset.get t.presence i r

(* --- observability -------------------------------------------------

   With the no-op default registry the operators skip straight to the
   work — no clock reads, no registration — so instrumented runs stay
   bit-identical to uninstrumented ones. *)

let instrumented ~cells f =
  let obs = Mde_obs.default () in
  if not (Mde_obs.enabled obs) then f ()
  else
    Mde_obs.with_span obs ~name:"bundle.kernel" (fun () ->
        let t0 = Mde_obs.Clock.wall () in
        let result = f () in
        Mde_obs.Histogram.observe
          (Mde_obs.histogram obs ~help:"Wall seconds per bundle operator sweep"
             "mde_bundle_kernel_seconds")
          (Mde_obs.Clock.wall () -. t0);
        Mde_obs.Counter.add
          (Mde_obs.counter obs
             ~help:"Row-by-repetition cells swept by bundle operators"
             "mde_bundle_cells_total")
          cells;
        result)

let count_fallbacks n =
  if n > 0 then begin
    let obs = Mde_obs.default () in
    if Mde_obs.enabled obs then
      Mde_obs.Counter.add
        (Mde_obs.counter obs
           ~help:"Bundle expressions evaluated by the interpreter fallback"
           "mde_bundle_fallback_total")
        n
  end

(* Row-chunked side-effecting sweep; [Pool.iter] chunks contiguously,
   and every per-row write (presence bytes, column slots) is disjoint
   across rows, so the parallel sweep is bit-identical to sequential. *)
let iter_rows ?pool n f = Mde_par.Pool.iter ?pool ~site:"bundle.sweep" n f

(* --- construction -------------------------------------------------- *)

let column_types schema =
  Array.of_list (List.map (fun c -> c.Schema.ty) (Schema.columns schema))

let of_stochastic_table ?pool st rng ~n_reps =
  if n_reps < 1 then invalid_arg "Bundle.of_stochastic_table: n_reps must be >= 1";
  let vg = Stochastic_table.vg st in
  if not vg.Vg.row_stable then
    invalid_arg
      (Printf.sprintf
         "Bundle.of_stochastic_table: VG function %S is not row-stable" vg.Vg.name);
  let out_schema = Stochastic_table.schema st in
  let driver_rows = Table.rows (Stochastic_table.driver st) in
  let n_rows = Array.length driver_rows in
  (* One pre-split stream per repetition, consumed driver-row-major —
     exactly how [Stochastic_table.instantiate] consumes stream [r] in
     [instantiate_many] — so realization [r] of this bundle is
     bit-identical to the naive path's instance [r], and repetitions can
     run on the pool without changing a single draw. *)
  let streams = Mde_prob.Rng.split_n rng n_reps in
  let reps_rows =
    Mde_par.Pool.init ?pool ~site:"bundle.generate" n_reps (fun r ->
        let rng = streams.(r) in
        Array.map
          (fun driver_row ->
            match Stochastic_table.generate_for_row st rng driver_row with
            | [ row ] -> row
            | rows ->
              invalid_arg
                (Printf.sprintf
                   "Bundle.of_stochastic_table: VG %S emitted %d rows for one \
                    driver row (expected 1)"
                   vg.Vg.name (List.length rows)))
          driver_rows)
  in
  let tys = column_types out_schema in
  let columns =
    Array.init (Array.length tys) (fun j ->
        Column.of_cells ~ty:tys.(j) ~rows:n_rows ~reps:n_reps (fun i r ->
            reps_rows.(r).(i).(j)))
  in
  {
    schema = out_schema;
    n_reps;
    n_rows;
    columns;
    presence = Bitset.create ~rows:n_rows ~reps:n_reps true;
  }

let of_table table ~n_reps =
  if n_reps < 1 then invalid_arg "Bundle.of_table: n_reps must be >= 1";
  let schema = Table.schema table in
  let rows = Table.rows table in
  let n_rows = Array.length rows in
  let tys = column_types schema in
  let columns =
    Array.init (Array.length tys) (fun j ->
        Column.of_det_cells ~ty:tys.(j) ~rows:n_rows ~reps:n_reps (fun i ->
            rows.(i).(j)))
  in
  { schema; n_reps; n_rows; columns; presence = Bitset.create ~rows:n_rows ~reps:n_reps true }

(* --- select -------------------------------------------------------- *)

let interp_det_only t e =
  List.for_all
    (fun name -> Column.det t.columns.(Schema.column_index t.schema name))
    (Expr.columns_used e)

let env t = Kernel.env_of_columns t.schema ~reps:t.n_reps t.columns

let select ?pool ?(impl = `Kernel) pred t =
  instrumented ~cells:(t.n_rows * t.n_reps) (fun () ->
      let presence = Bitset.copy t.presence in
      let reps = t.n_reps in
      let compiled =
        match impl with
        | `Interpreter -> None
        | `Kernel -> Option.bind (Kernel.compile (env t) pred) Kernel.truth
      in
      begin
        match compiled with
        | Some node ->
          let unc = Kernel.node_unc node in
          Kernel.sweep ?pool ~site:"bundle.blocks" ~rows:t.n_rows ~reps [| node |]
            (fun insts ->
              let b = Kernel.bool_block insts.(0) in
              if not unc then
                (* One evaluation covers every repetition. *)
                fun i0 i1 ->
                  for i = i0 to i1 - 1 do
                    if Bytes.get b.data (b.off + i - i0) = '\000' then
                      Bitset.clear_row presence i
                  done
              else fun i0 i1 ->
                for i = i0 to i1 - 1 do
                  let base = b.off + ((i - i0) * reps) in
                  for r = 0 to reps - 1 do
                    if Bytes.get b.data (base + r) = '\000' then Bitset.unset presence i r
                  done
                done)
        | None ->
          (match impl with `Kernel -> count_fallbacks 1 | `Interpreter -> ());
          if interp_det_only t pred then
            iter_rows ?pool t.n_rows (fun i ->
                if not (Expr.eval_bool t.schema (realize_row t i 0) pred) then
                  Bitset.clear_row presence i)
          else
            iter_rows ?pool t.n_rows (fun i ->
                for r = 0 to t.n_reps - 1 do
                  if
                    Bitset.get presence i r
                    && not (Expr.eval_bool t.schema (realize_row t i r) pred)
                  then Bitset.unset presence i r
                done)
      end;
      { t with presence })

(* --- project / extend ---------------------------------------------- *)

let project names t =
  let idxs = List.map (Schema.column_index t.schema) names in
  {
    t with
    schema = Schema.project t.schema names;
    columns = Array.of_list (List.map (fun j -> t.columns.(j)) idxs);
  }

let extend ?pool ?(impl = `Kernel) defs t =
  let added = Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) defs) in
  let out_schema = Schema.concat t.schema added in
  instrumented ~cells:(t.n_rows * t.n_reps * List.length defs) (fun () ->
      let env = env t in
      let new_cols =
        List.map
          (fun (_, ty, e) ->
            let node =
              match impl with `Interpreter -> None | `Kernel -> Kernel.compile env e
            in
            match node with
            | Some node -> Kernel.materialize ?pool ~rows:t.n_rows ~reps:t.n_reps node
            | None ->
              (match impl with `Kernel -> count_fallbacks 1 | `Interpreter -> ());
              if interp_det_only t e then
                Column.of_det_cells ~ty ~rows:t.n_rows ~reps:t.n_reps (fun i ->
                    Expr.eval t.schema (realize_row t i 0) e)
              else
                Column.of_cells ~ty ~rows:t.n_rows ~reps:t.n_reps (fun i r ->
                    Expr.eval t.schema (realize_row t i r) e))
          defs
      in
      {
        t with
        schema = out_schema;
        columns = Array.append t.columns (Array.of_list new_cols);
      })

(* --- join ----------------------------------------------------------- *)

(* Keys must be deterministic: checked once, before any keying work. *)
let det_keys_exn t names =
  Array.of_list
    (List.map
       (fun name ->
         let c = t.columns.(Schema.column_index t.schema name) in
         if Column.det c then c else invalid_arg "Bundle: key column is uncertain")
       names)

let join ~on left right =
  if left.n_reps <> right.n_reps then
    invalid_arg "Bundle.join: repetition counts differ";
  let lk = det_keys_exn left (List.map fst on) in
  let rk = det_keys_exn right (List.map snd on) in
  (* Build right, probe left: Algebra.equi_join's pair order. *)
  let li, ri =
    Keycode.join_pairs ~packed:true ~build_rows:right.n_rows ~probe_rows:left.n_rows rk
      lk
  in
  let n_out = Array.length li in
  let columns =
    Array.append
      (Array.map (fun c -> Column.gather c li) left.columns)
      (Array.map (fun c -> Column.gather c ri) right.columns)
  in
  let presence = Bitset.create ~rows:n_out ~reps:left.n_reps false in
  for k = 0 to n_out - 1 do
    Bitset.and_rows ~dst:presence k ~a:left.presence li.(k) ~b:right.presence ri.(k)
  done;
  {
    schema = Schema.concat left.schema right.schema;
    n_reps = left.n_reps;
    n_rows = n_out;
    columns;
    presence;
  }

(* --- aggregate / fused query ---------------------------------------- *)

type agg = Count | Sum of Expr.t | Avg of Expr.t | Min of Expr.t | Max of Expr.t

type group_state = {
  counts : int array;  (* per rep *)
  sums : float array array;  (* per agg, per rep *)
  mins : float array array;
  maxs : float array array;
  agg_counts : int array array;  (* per agg: rows contributing per rep *)
}

type def_eval = D_node of Kernel.node | D_interp of Expr.t
(* An aggregate's argument over a run of rows: cell (i, r) of rows from
   [i0] sits at [vo + (i - i0) * st + r] of [v] ([r] dropped when [st =
   1], a deterministic argument), with its null flag at the same place
   from [no] in [nb]. *)
type src = { v : Column.floats; vo : int; nb : Bytes.t; no : int; st : int }
type pred_eval = P_none | P_node of Kernel.node | P_interp of Expr.t
type agg_eval = A_count | A_node of Kernel.node | A_interp of Expr.t

let fused ?pool ~impl t ~pred ~defs ~keys ~aggs =
  let key_cols = det_keys_exn t keys in
  let reps = t.n_reps in
  let ext_schema =
    match defs with
    | [] -> t.schema
    | _ ->
      Schema.concat t.schema
        (Schema.of_list (List.map (fun (n, ty, _) -> (n, ty)) defs))
  in
  let kernel = match impl with `Kernel -> true | `Interpreter -> false in
  let fallbacks = ref 0 in
  let env = env t in
  let def_evals =
    List.map
      (fun (name, _, e) ->
        if kernel then
          match Kernel.compile env e with
          | Some node -> (name, D_node node)
          | None ->
            incr fallbacks;
            (name, D_interp e)
        else (name, D_interp e))
      defs
  in
  let env' =
    Kernel.env_extend env
      (List.filter_map
         (function n, D_node node -> Some (n, node) | _, D_interp _ -> None)
         def_evals)
  in
  let pred_eval =
    match pred with
    | None -> P_none
    | Some p ->
      if kernel then begin
        match Option.bind (Kernel.compile env p) Kernel.truth with
        | Some node -> P_node node
        | None ->
          incr fallbacks;
          P_interp p
      end
      else P_interp p
  in
  let agg_evals =
    Array.of_list
      (List.map
         (fun (_, agg) ->
           match agg with
           | Count -> A_count
           | Sum e | Avg e | Min e | Max e ->
             if kernel then begin
               match Option.bind (Kernel.compile env' e) Kernel.numeric with
               | Some node -> A_node node
               | None ->
                 incr fallbacks;
                 A_interp e
             end
             else A_interp e)
         aggs)
  in
  if kernel then count_fallbacks !fallbacks;
  (* Interpreted aggregate arguments read the extended row; compiled
     derived columns are materialized for them once, up front. *)
  let derived =
    if Array.exists (function A_interp _ -> true | A_count | A_node _ -> false) agg_evals
    then
      List.map
        (function
          | _, D_node node -> `Col (Kernel.materialize ~rows:t.n_rows ~reps node)
          | _, D_interp e -> `Expr e)
        def_evals
    else []
  in
  let ext_row i r =
    let base = realize_row t i r in
    match derived with
    | [] -> base
    | _ ->
      Array.append base
        (Array.of_list
           (List.map
              (function
                | `Col c -> Column.value c i r
                | `Expr e -> Expr.eval t.schema base e)
              derived))
  in
  let n_aggs = Array.length agg_evals in
  let fresh () =
    {
      counts = Array.make reps 0;
      sums = Array.init n_aggs (fun _ -> Array.make reps 0.);
      mins = Array.init n_aggs (fun _ -> Array.make reps infinity);
      maxs = Array.init n_aggs (fun _ -> Array.make reps neg_infinity);
      agg_counts = Array.init n_aggs (fun _ -> Array.make reps 0);
    }
  in
  (* Group ids in first-seen order; each group's key values are read
     back from its first row. *)
  let { Keycode.ids; firsts } =
    Keycode.group_ids ?pool ~packed:true ~n_rows:t.n_rows key_cols
  in
  (* A global aggregate over no rows still reports its one group. *)
  let n_groups = if keys = [] then max 1 (Array.length firsts) else Array.length firsts in
  let states = Array.init n_groups (fun _ -> fresh ()) in
  (* The compiled nodes of the sweep: the predicate first, if any, then
     each compiled aggregate argument; [inst_of.(a)] finds aggregate
     [a]'s instance. *)
  let pred_nodes = match pred_eval with P_node n -> [ n ] | P_none | P_interp _ -> [] in
  let agg_nodes =
    List.filter_map (function A_node n -> Some n | A_count | A_interp _ -> None)
      (Array.to_list agg_evals)
  in
  let nodes = Array.of_list (pred_nodes @ agg_nodes) in
  let inst_of =
    let next = ref (List.length pred_nodes) in
    Array.map
      (function
        | A_node _ ->
          incr next;
          !next - 1
        | A_count | A_interp _ -> -1)
      agg_evals
  in
  (* [fill_pass insts pass base i0 i1]: byte [base + (i - i0) * reps + r]
     of [pass] becomes 1 when cell (i, r) is present and passes the
     predicate. Compiled nodes were evaluated over the whole block — they
     are total — and the flags mask what the accumulation reads. *)
  let fill_pass insts pass base i0 i1 =
    Bitset.unpack t.presence i0 i1 pass base;
    match pred_eval with
    | P_none -> ()
    | P_node _ ->
      let inst = insts.(0) in
      let b = Kernel.bool_block inst in
      let st = inst.Kernel.stride in
      for i = i0 to i1 - 1 do
        let k0 = base + ((i - i0) * reps) and s0 = b.off + ((i - i0) * st) in
        for r = 0 to reps - 1 do
          let s = if st = 1 then s0 else s0 + r in
          Bytes.set pass (k0 + r)
            (Char.unsafe_chr (Char.code (Bytes.get pass (k0 + r)) land Char.code (Bytes.get b.data s)))
        done
      done
    | P_interp p ->
      for i = i0 to i1 - 1 do
        for r = 0 to reps - 1 do
          let k = base + ((i - i0) * reps) + r in
          if Bytes.get pass k = '\001' && not (Expr.eval_bool t.schema (realize_row t i r) p)
          then Bytes.set pass k '\000'
        done
      done
  in
  (* An interpreted argument, evaluated only where the cell passes (a
     string argument raises from [Value.to_float] there, as the row
     oracle does), into block scratch [vals]/[nulls] at stride [reps]. *)
  let fill_interp e pass pbase vals nulls i0 i1 =
    for i = i0 to i1 - 1 do
      for r = 0 to reps - 1 do
        let j = ((i - i0) * reps) + r in
        let v =
          if Bytes.get pass (pbase + j) = '\001' then Expr.eval ext_schema (ext_row i r) e
          else Value.Null
        in
        if Value.is_null v then Bytes.set nulls j '\001'
        else begin
          Bytes.set nulls j '\000';
          Bigarray.Array1.set vals j (Value.to_float v)
        end
      done
    done
  in
  (* Accumulation goes column by column: the pass counts, then each
     aggregate over its source. Every (group, aggregate, rep)
     accumulator sees its cells in row order, so sums come out
     bit-identical to a cell-at-a-time sweep, and aggregates touch
     disjoint state. *)
  let count_passes pass pbase i0 i1 =
    for i = i0 to i1 - 1 do
      let counts = states.(ids.(i)).counts and k0 = pbase + ((i - i0) * reps) in
      for r = 0 to reps - 1 do
        counts.(r) <- counts.(r) + Char.code (Bytes.get pass (k0 + r))
      done
    done
  in
  let accumulate a { v; vo; nb; no; st } pass pbase i0 i1 =
    for i = i0 to i1 - 1 do
      let state = states.(ids.(i)) in
      let sums = state.sums.(a) and mins = state.mins.(a) in
      let maxs = state.maxs.(a) and n = state.agg_counts.(a) in
      let k0 = pbase + ((i - i0) * reps) and s0 = (i - i0) * st in
      for r = 0 to reps - 1 do
        let s = if st = 1 then s0 else s0 + r in
        if Bytes.get pass (k0 + r) = '\001' && Bytes.get nb (no + s) = '\000' then begin
          let x = Bigarray.Array1.get v (vo + s) in
          sums.(r) <- sums.(r) +. x;
          if x < mins.(r) then mins.(r) <- x;
          if x > maxs.(r) then maxs.(r) <- x;
          n.(r) <- n.(r) + 1
        end
      done
    done
  in
  let cap = min t.n_rows (Kernel.block_rows ~reps) * reps in
  (* Aggregate [a]'s source for the block just run: a compiled argument
     is read in place, an interpreted one evaluated into [scratch]. *)
  let source a (insts : Kernel.inst array) inst_a scratch zeros pass pbase i0 i1 =
    match agg_evals.(a) with
    | A_count -> None
    | A_node _ ->
      let inst = insts.(inst_a) in
      let b = Kernel.float_block inst in
      let nb, no =
        match inst.Kernel.nulls with Some n -> (n.data, n.off) | None -> (zeros, 0)
      in
      Some { v = b.data; vo = b.off; nb; no; st = inst.Kernel.stride }
    | A_interp e ->
      let vals, nulls = Option.get scratch in
      fill_interp e pass pbase vals nulls i0 i1;
      Some { v = vals; vo = 0; nb = nulls; no = 0; st = reps }
  in
  let scratch a =
    match agg_evals.(a) with
    | A_interp _ ->
      Some (Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout cap, Bytes.create cap)
    | A_count | A_node _ -> None
  in
  begin
    match pool with
    | None ->
      (* One fused sweep: each block is evaluated, then accumulated. *)
      Kernel.sweep ~site:"bundle.blocks" ~rows:t.n_rows ~reps nodes (fun insts ->
          let pass = Bytes.create cap and zeros = Bytes.make cap '\000' in
          let scratch = Array.init n_aggs scratch in
          fun i0 i1 ->
            fill_pass insts pass 0 i0 i1;
            count_passes pass 0 i0 i1;
            Array.iteri
              (fun a _ ->
                Option.iter
                  (fun src -> accumulate a src pass 0 i0 i1)
                  (source a insts inst_of.(a) scratch.(a) zeros pass 0 i0 i1))
              agg_evals)
    | Some _ ->
      (* Pass flags for the whole bundle come from a block-parallel
         sweep; then the counts and each aggregate run side by side,
         each sweeping its own argument in row order. *)
      let pass = Bytes.create (t.n_rows * reps) in
      Kernel.sweep ?pool ~site:"bundle.blocks" ~rows:t.n_rows ~reps
        (Array.of_list pred_nodes)
        (fun insts i0 i1 -> fill_pass insts pass (i0 * reps) i0 i1);
      Mde_par.Pool.iter ?pool ~site:"bundle.aggs" (n_aggs + 1) (fun task ->
          if task = n_aggs then count_passes pass 0 0 t.n_rows
          else
            let a = task in
            match agg_evals.(a) with
            | A_count -> ()
            | (A_node _ | A_interp _) as ev ->
              let own = match ev with A_node n -> [| n |] | _ -> [||] in
              Kernel.sweep ~site:"bundle.blocks" ~rows:t.n_rows ~reps own (fun insts ->
                  let zeros = Bytes.make cap '\000' and scratch = scratch a in
                  fun i0 i1 ->
                    Option.iter
                      (fun src -> accumulate a src pass (i0 * reps) i0 i1)
                      (source a insts 0 scratch zeros pass (i0 * reps) i0 i1)))
  end;
  let finish g =
    let state = states.(g) in
    let per_agg =
      Array.of_list
        (List.mapi
           (fun a (_, agg) ->
             Array.init t.n_reps (fun r ->
                 match agg with
                 | Count -> float_of_int state.counts.(r)
                 | Sum _ -> state.sums.(a).(r)
                 | Avg _ ->
                   if state.agg_counts.(a).(r) = 0 then nan
                   else state.sums.(a).(r) /. float_of_int state.agg_counts.(a).(r)
                 | Min _ ->
                   if state.agg_counts.(a).(r) = 0 then nan else state.mins.(a).(r)
                 | Max _ ->
                   if state.agg_counts.(a).(r) = 0 then nan else state.maxs.(a).(r)))
           aggs)
    in
    (Array.map (fun c -> Column.value c firsts.(g) 0) key_cols, per_agg)
  in
  List.init n_groups finish

let aggregate ?pool ?(impl = `Kernel) ?(keys = []) aggs t =
  instrumented ~cells:(t.n_rows * t.n_reps) (fun () ->
      fused ?pool ~impl t ~pred:None ~defs:[] ~keys ~aggs)

type plan = {
  where_ : Expr.t option;
  derive : (string * Value.ty * Expr.t) list;
  group_keys : string list;
  aggs : (string * agg) list;
}

let agg_fingerprint = function
  | Count -> "count"
  | Sum e -> Format.asprintf "sum(%a)" Expr.pp e
  | Avg e -> Format.asprintf "avg(%a)" Expr.pp e
  | Min e -> Format.asprintf "min(%a)" Expr.pp e
  | Max e -> Format.asprintf "max(%a)" Expr.pp e

let plan_fingerprint plan =
  Format.asprintf "plan{where=%s;derive=[%s];keys=[%s];aggs=[%s]}"
    (match plan.where_ with
    | None -> "-"
    | Some p -> Format.asprintf "%a" Expr.pp p)
    (String.concat ";"
       (List.map
          (fun (n, ty, e) ->
            Format.asprintf "%s:%s=%a" n (Value.type_name ty) Expr.pp e)
          plan.derive))
    (String.concat ";" plan.group_keys)
    (String.concat ";"
       (List.map (fun (n, a) -> n ^ "=" ^ agg_fingerprint a) plan.aggs))

let query ?pool ?(impl = `Kernel) t plan =
  if List.for_all (Schema.mem t.schema) plan.group_keys then
    instrumented ~cells:(t.n_rows * t.n_reps) (fun () ->
        fused ?pool ~impl t ~pred:plan.where_ ~defs:plan.derive
          ~keys:plan.group_keys ~aggs:plan.aggs)
  else
    (* Group keys name derived columns: materialize, then aggregate. *)
    let t = match plan.where_ with None -> t | Some p -> select ?pool ~impl p t in
    let t = extend ?pool ~impl plan.derive t in
    aggregate ?pool ~impl ~keys:plan.group_keys plan.aggs t

let to_instances t =
  Array.init t.n_reps (fun r ->
      let rows = ref [] in
      for i = t.n_rows - 1 downto 0 do
        if Bitset.get t.presence i r then rows := realize_row t i r :: !rows
      done;
      Table.create t.schema !rows)
