(* The four workloads: what traffic, on which engine, how long, and how
   each run proves its outputs correct. [Bench] runs them. *)

open Dejavu_core

(* How a run proves its outputs correct (untimed, every run). *)
type check =
  | Oracle of { engine : Runtime.Engine.t; rounds : int }
      (** the first [rounds] batches give the same digest and verdict
          counts on a fresh runtime with [engine] *)
  | Live_cold of { probe : int }
      (** the live control-plane state equals a cold-applied trace's,
          and a [probe]-packet batch forwards identically on both *)

type t = {
  name : string;
  why : string;
  kind : Deploy.kind;
  engine : Runtime.Engine.t;
  traffic : seed:int -> Gen.t;
  batch : int;  (** packets per round *)
  ops_per_round : int;  (** control ops applied before each round's batch *)
  warmup_rounds : int;
  rounds_per_s : int;
      (** timed rounds per [--seconds]: fixed, so every commit runs the
          same window; sized to take about a second each on a 2-core
          host at the commit that introduced the benchmark *)
  check : check;
}

let emc = Runtime.Engine.Emc { capacity = 65_536 }
let default = Runtime.Engine.default

let all =
  [
    {
      name = "fig2_mix";
      why =
        "Fig. 2 policy at paper weights, uncached: every packet walks parse, \
         match-action and deparse; 2% punt to the LB handler";
      kind = Deploy.Fig2;
      engine = default;
      traffic = (fun ~seed -> Gen.fig2_mix ~seed);
      batch = 1000;
      ops_per_round = 0;
      warmup_rounds = 20;
      rounds_per_s = 73;
      check = Oracle { engine = { default with Runtime.Engine.exec_mode = Asic.Chip.Reference }; rounds = 10 };
    };
    {
      name = "zipf_emc";
      why =
        "1M green flows, Zipf(1.1), IMIX sizes, 65,536-entry EMC: the flow cache \
         serves most packets; the pipeline sees only misses";
      kind = Deploy.Fig2;
      engine = { default with Runtime.Engine.cache = emc };
      traffic = (fun ~seed -> Gen.zipf_emc ~seed ~flows:1_000_000 ~exponent:1.1);
      batch = 1000;
      ops_per_round = 0;
      warmup_rounds = 300;
      rounds_per_s = 200;
      check = Oracle { engine = default; rounds = 100 };
    };
    {
      name = "lb_nat_conns";
      why =
        "classifier-lb-nat-router with a bounded state store: 25% new connections, \
         each punting twice, with LRU evictions deleting chip entries";
      kind = Deploy.Lb_nat;
      engine = { default with Runtime.Engine.state = Deploy.lb_nat_state };
      traffic = (fun ~seed -> Gen.lb_nat_conns ~seed);
      batch = 1000;
      ops_per_round = 0;
      warmup_rounds = 100;
      rounds_per_s = 38;
      check =
        Oracle
          {
            engine =
              {
                default with
                Runtime.Engine.exec_mode = Asic.Chip.Reference;
                state = Deploy.lb_nat_state;
              };
            rounds = 10;
          };
    };
    {
      name = "fib_churn_x2";
      why =
        "fig2_mix traffic on 2 domains with the EMC, between batches of FIB and ACL \
         updates: table writes beside reads, sharding and cache invalidation";
      kind = Deploy.Fig2;
      engine = { default with Runtime.Engine.domains = 2; cache = emc };
      traffic = (fun ~seed -> Gen.fig2_mix ~seed);
      batch = 300;
      ops_per_round = 40;
      warmup_rounds = 50;
      rounds_per_s = 55;
      check = Live_cold { probe = 4000 };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

type sizes = {
  warmup : int;  (** rounds *)
  timed : int;  (** rounds *)
  check_rounds : int;
  setups : int;
  discarded : int;
}

let sizes ~smoke ~seconds ~trace w =
  let scale n = if smoke then max 1 (n / 100) else n in
  let warmup = scale w.warmup_rounds in
  {
    warmup;
    (* The traced run interleaves an untraced and a traced runtime over
       the same batches, so it covers a quarter of the window. *)
    timed = max 1 (scale (w.rounds_per_s * seconds) / if trace then 4 else 1);
    check_rounds =
      (match w.check with Oracle o -> min warmup (scale o.rounds) | Live_cold _ -> 0);
    setups = (if smoke then 5 else 24);
    discarded = (if smoke then 1 else 3);
  }
