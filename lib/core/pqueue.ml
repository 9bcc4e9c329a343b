type t = {
  mutable prio : int array;
  mutable data : int array;
  mutable size : int;
}

let create hint =
  let cap = max 16 hint in
  { prio = Array.make cap 0; data = Array.make cap 0; size = 0 }

let grow t =
  let cap = 2 * Array.length t.prio in
  let prio = Array.make cap 0 and data = Array.make cap 0 in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.data 0 data 0 t.size;
  t.prio <- prio;
  t.data <- data

let swap t i j =
  let p = t.prio.(i) and d = t.data.(i) in
  t.prio.(i) <- t.prio.(j);
  t.data.(i) <- t.data.(j);
  t.prio.(j) <- p;
  t.data.(j) <- d

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.prio.(i) < t.prio.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.prio.(l) < t.prio.(!smallest) then smallest := l;
  if r < t.size && t.prio.(r) < t.prio.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~prio payload =
  if t.size = Array.length t.prio then grow t;
  t.prio.(t.size) <- prio;
  t.data.(t.size) <- payload;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let p = t.prio.(0) and d = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.prio.(0) <- t.prio.(t.size);
      t.data.(0) <- t.data.(t.size);
      sift_down t 0
    end;
    Some (p, d)
  end
