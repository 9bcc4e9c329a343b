type config = {
  n_recircs : int;
  pkts_per_slot : int;
  buffer_pkts : int;
  slots : int;
  warmup_slots : int;
  seed : int;
}

let default ~n_recircs =
  {
    n_recircs;
    pkts_per_slot = 100;
    buffer_pkts = 200;
    slots = 4000;
    warmup_slots = 1000;
    seed = 7;
  }

type stats = {
  offered : int;
  delivered : int;
  dropped : int;
  throughput_fraction : float;
}

(* A packet is just the number of loopback passes it still needs. *)

let shuffle st arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let run config =
  if config.n_recircs < 0 then invalid_arg "Flowsim.run: negative recircs";
  let st = Random.State.make [| config.seed |] in
  let queue = Queue.create () in
  (* Served by EB this slot; re-enter EB next slot (via IB) unless done. *)
  let in_flight = ref [] in
  let offered = ref 0 in
  let delivered = ref 0 in
  let dropped = ref 0 in
  let measuring slot = slot >= config.warmup_slots in
  for slot = 0 to config.slots - 1 do
    (* Fresh arrivals at line rate, plus packets coming back from IB;
       random interleaving models fair contention at EB's buffer. *)
    let fresh = Array.make config.pkts_per_slot config.n_recircs in
    if measuring slot then offered := !offered + Array.length fresh;
    let returning = Array.of_list !in_flight in
    in_flight := [];
    let arrivals = Array.append fresh returning in
    shuffle st arrivals;
    Array.iter
      (fun remaining ->
        if remaining = 0 then begin
          (* Needs no loopback pass: leaves directly through EA. *)
          if measuring slot then incr delivered
        end
        else if Queue.length queue < config.buffer_pkts then
          Queue.add remaining queue
        else if measuring slot then incr dropped)
      arrivals;
    (* EB drains at line rate. *)
    let budget = ref config.pkts_per_slot in
    while !budget > 0 && not (Queue.is_empty queue) do
      decr budget;
      let remaining = Queue.pop queue - 1 in
      if remaining = 0 then begin
        if measuring slot then incr delivered
      end
      else in_flight := remaining :: !in_flight
    done
  done;
  let measured_slots = config.slots - config.warmup_slots in
  let line = float_of_int (config.pkts_per_slot * measured_slots) in
  {
    offered = !offered;
    delivered = !delivered;
    dropped = !dropped;
    throughput_fraction = float_of_int !delivered /. line;
  }

let sweep ns = List.map (fun n -> (n, run (default ~n_recircs:n))) ns
