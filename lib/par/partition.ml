let uniform ~n ~parts =
  if n < 0 then invalid_arg "Partition.uniform: n < 0";
  if parts < 1 then invalid_arg "Partition.uniform: parts < 1";
  Array.init (parts + 1) (fun k -> n * k / parts)

let by_prefix ?(item_cost = 1) ~prefix ~parts () =
  let n = Array.length prefix - 1 in
  if n < 0 then invalid_arg "Partition.by_prefix: prefix must be non-empty";
  if parts < 1 then invalid_arg "Partition.by_prefix: parts < 1";
  if item_cost < 0 then invalid_arg "Partition.by_prefix: item_cost < 0";
  let base = prefix.(0) in
  (* cumulative weight of items [0, i) — monotone, so the boundary for
     each weight target is a binary search. *)
  let weight_upto i = prefix.(i) - base + (item_cost * i) in
  let total = weight_upto n in
  let bounds = Array.make (parts + 1) 0 in
  bounds.(parts) <- n;
  for k = 1 to parts - 1 do
    let target = total * k / parts in
    let lo = ref bounds.(k - 1) and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if weight_upto mid < target then lo := mid + 1 else hi := mid
    done;
    bounds.(k) <- !lo
  done;
  bounds
