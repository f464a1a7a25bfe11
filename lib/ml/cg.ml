open Matrix

let solve session ~r0 ~hv ~iterations ~tolerance =
  let n = Array.length r0 in
  let s = Vec.create n in
  let r = r0 in
  let p = Vec.copy r0 in
  let hp = Vec.create n in
  let rr = ref (Session.dot session r r) in
  let count = ref 0 in
  let target = !rr *. tolerance *. tolerance in
  while !count < iterations && !rr > target do
    hv ~p ~into:hp;
    let php = Session.dot session p hp in
    if php <= 0.0 then count := iterations
    else begin
      let alpha = !rr /. php in
      ignore (Session.axpy session ~into:s alpha p s);
      ignore (Session.axpy session ~into:r (-.alpha) hp r);
      let rr' = Session.dot session r r in
      (* p = r + (rr' / rr) p *)
      ignore (Session.scal session ~into:p (rr' /. !rr) p);
      ignore (Session.axpy session ~into:p 1.0 r p);
      rr := rr';
      incr count
    end
  done;
  (s, !count)
