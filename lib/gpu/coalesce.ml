let segment ~transaction_bytes ~bytes_per_elt ~start ~count =
  if count <= 0 then 0
  else begin
    let first = start * bytes_per_elt / transaction_bytes in
    let last = (((start + count) * bytes_per_elt) - 1) / transaction_bytes in
    last - first + 1
  end

let gather_sorted ~transaction_bytes ~bytes_per_elt ~indices ~lo ~hi =
  if hi - lo <= 0 then 0
  else begin
    let count = ref 1 in
    let prev = ref (indices.(lo) * bytes_per_elt / transaction_bytes) in
    for k = lo + 1 to hi - 1 do
      let line = indices.(k) * bytes_per_elt / transaction_bytes in
      if line <> !prev then begin
        incr count;
        prev := line
      end
    done;
    !count
  end

let strided ~transaction_bytes ~bytes_per_elt ~start ~stride ~count =
  if count <= 0 then 0
  else begin
    let lines_per_elt = Stdlib.max 1 (bytes_per_elt / transaction_bytes) in
    if stride * bytes_per_elt >= transaction_bytes then count * lines_per_elt
    else begin
      let first = start * bytes_per_elt / transaction_bytes in
      let last_elt = start + ((count - 1) * stride) in
      let last = (((last_elt + 1) * bytes_per_elt) - 1) / transaction_bytes in
      last - first + 1
    end
  end
