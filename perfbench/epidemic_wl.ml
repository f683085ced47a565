(* The Indemics workload: Algorithm 1 of §2.4 on a synthetic contact
   network. Each simulated day advances the disease ([step_day]), then
   the experimenter's session refreshes its tables ([catalog]), runs the
   preschool policy as [Relational.Query] pipelines, and applies the
   intervention. This is the only workload that runs [Query]. *)

open Common
open Mde.Relational
module Network = Mde.Epidemic.Network
module Indemics = Mde.Epidemic.Indemics

let persons = 20_000
let days = 60

let is_preschool = Expr.(col "age" >= int 0 && col "age" <= int 4)
let infected_ids cat = Algebra.rename [ ("pid", "ipid") ] (Catalog.find cat "InfectedPerson")

(* The policy's two questions, answered with [Query]: the preschoolers'
   ids, and how many of them are infected. *)
let query_answers cat =
  let preschool =
    span "query.run" (fun () ->
        Query.of_table (Catalog.find cat "Person")
        |> Query.where is_preschool |> Query.select_cols [ "pid" ] |> Query.run)
  in
  let infected =
    span "query.run" (fun () ->
        Query.of_table preschool |> Query.join ~on:[ ("pid", "ipid") ] (infected_ids cat) |> Query.count)
  in
  (preschool, infected)

(* The same questions on the row algebra: the oracle for [Query]. *)
let algebra_answers cat =
  let preschool = Algebra.project [ "pid" ] (Algebra.select is_preschool (Catalog.find cat "Person")) in
  let infected =
    Table.cardinality (Algebra.equi_join ~on:[ ("pid", "ipid") ] preschool (infected_ids cat))
  in
  (preschool, infected)

(* What the policy saw on one day: the preschool set, by a digest of its
   sorted ids, and how many of them were infected. *)
type observation = { preschoolers : int; infected : int; ids : Digest.t }

(* Algorithm 1: once more than 1 % of preschoolers are infected,
   vaccinate every preschooler. [observe] receives each day's answers. *)
let policy ~answers ~observe engine =
  let cat = span "indemics.catalog" (fun () -> Indemics.catalog engine) in
  let preschool, infected = answers cat in
  let pids = Array.map (fun r -> Value.to_int r.(0)) (Table.rows preschool) in
  Array.sort Int.compare pids;
  observe { preschoolers = Array.length pids; infected; ids = Digest.string (Marshal.to_string pids []) };
  let pids =
    if float_of_int infected > 0.01 *. float_of_int (Array.length pids) then Array.to_list pids
    else []
  in
  span "indemics.intervene" (fun () -> Indemics.apply_intervention engine ~pids Indemics.Vaccinate)

let record engine ~new_infections ~interventions_applied =
  let net = Indemics.network engine in
  let c = Network.count_health net in
  {
    Indemics.day = Indemics.day engine;
    susceptible = c Network.Susceptible;
    exposed = c Network.Exposed;
    infectious = c Network.Infectious;
    recovered = c Network.Recovered;
    vaccinated = c Network.Vaccinated;
    new_infections;
    interventions_applied;
  }

let run ~seed ~seconds ~traced =
  let engine_seed = seed + 1 in
  let set_up () =
    let network = Network.synthetic ~seed ~n:persons ~community_degree:4. () in
    (* Warm-up: a few days of the loop. *)
    let engine = Indemics.create ~seed:engine_seed network Indemics.default_params in
    for _ = 1 to 3 do
      ignore (Indemics.step_day engine);
      ignore (policy ~answers:query_answers ~observe:ignore engine)
    done;
    network
  in
  (* Every episode starts from a fresh set-up, timed on its own, so the
     set-up samples spread over the run. The network is rebuilt from the
     same seed and the engine restarts from the same seed, so every
     episode must reproduce the reference run day for day. Before each
     set-up the collector finishes its current cycle, so every episode
     starts on a collected heap; a full collection instead restarted the
     collector's pacing and raised the peak heap with every episode, so
     the peak would count episodes. The run ends on a whole episode, so
     every run times the same days in the same proportion. *)
  let setups = ref [] and network = ref None in
  let episodes = ref [] in
  let latencies = ref [] and simulated = ref 0 and busy = ref 0. in
  measure ~traced (fun () ->
      while !busy < seconds || !simulated = 0 do
        network := None;
        let net, t = timed_setup ~collect:Gc.major set_up in
        setups := t :: !setups;
        network := Some net;
        let engine = Indemics.create ~seed:engine_seed net Indemics.default_params in
        let records = ref [ record engine ~new_infections:0 ~interventions_applied:0 ] in
        let seen = ref [] in
        let observe o = seen := o :: !seen in
        let d = ref 0 in
        while !d < days do
          let t0 = now () in
          let fresh, acted =
            span "day" (fun () ->
                let fresh = span "indemics.step" (fun () -> Indemics.step_day engine) in
                (fresh, policy ~answers:query_answers ~observe engine))
          in
          let dt = now () -. t0 in
          busy := !busy +. dt;
          latencies := (dt *. 1e3) :: !latencies;
          records := record engine ~new_infections:fresh ~interventions_applied:acted :: !records;
          incr d;
          incr simulated
        done;
        episodes := (Array.of_list (List.rev !records), Array.of_list (List.rev !seen)) :: !episodes
      done);
  let heap = peak_heap_mb () in
  let network = Option.get !network in
  let latencies = Array.of_list !latencies in
  let layers =
    if not traced then []
    else
      let ms name = Array.map (fun s -> s *. 1e3) (Trace.durations name) in
      List.map
        (fun (metric_name, span_name) ->
          let d = ms span_name in
          metric ~samples:(Array.length d) metric_name "ms" (mean d))
        [
          ("indemics.step_ms", "indemics.step");
          ("indemics.catalog_ms", "indemics.catalog");
          ("indemics.intervene_ms", "indemics.intervene");
          ("query.run_ms", "query.run");
        ]
  in
  (* The reference run answers the policy on the row algebra. Every
     episode restarts from the same seeds on the same network, so its
     day records and each day's answers must equal the reference's, and
     a [Query] that answers wrongly fails the check. *)
  let seen = ref [] in
  let reference =
    Indemics.run
      (Indemics.create ~seed:engine_seed network Indemics.default_params)
      ~days
      ~policy:(Some (policy ~answers:algebra_answers ~observe:(fun o -> seen := o :: !seen)))
  in
  let reference_seen = Array.of_list (List.rev !seen) in
  let prefix ep reference = ep = Array.sub reference 0 (Array.length ep) in
  let records_ok = List.for_all (fun (ep, _) -> prefix ep reference) !episodes in
  let answers_ok = List.for_all (fun (_, seen) -> prefix seen reference_seen) !episodes in
  let checks =
    [ ("epidemic.reference_identical", records_ok); ("query.algebra_identical", answers_ok) ]
  in
  {
    correct = List.for_all snd checks;
    unit_cost = !busy /. float_of_int !simulated;
    attempted = !simulated;
    failed = 0;
    checks;
    metrics =
      [
        setup_metric !setups;
        metric ~samples:(Array.length latencies) "p50_ms" "ms" (percentile latencies 50.);
        metric ~samples:(Array.length latencies) "tail_ms" "ms" (percentile latencies 95.);
        metric ~samples:!simulated "work_per_s" "1/s" (float_of_int !simulated /. !busy);
        metric "peak_heap_mb" "MB" heap;
      ]
      @ layers;
  }
