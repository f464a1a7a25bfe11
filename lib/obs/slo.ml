(* Per-model service-level objectives with a rolling error budget.

   An SLO is "[objective] of the last [window] requests complete within
   [target_us] (and succeed)".  Each recorded request is either
   compliant or a violation (too slow, or failed outright); the tracker
   keeps the last [window] outcomes in a ring so the budget reflects
   recent behaviour, not the whole process lifetime — a service that
   misbehaved at startup earns its budget back as compliant requests
   push the bad ones out of the window.

   Error-budget arithmetic: a window of W requests at objective o
   allows (1 - o) * W violations.  budget_remaining = 1 - v / allowed
   (clamped to [0, 1]) where v is the violations currently in the
   window — 1.0 means untouched budget, 0.0 means spent.  This is the
   signal item 2's deadline-aware shedding will consume: shed
   aggressively as the budget approaches zero, never when it is full.

   Every violation bumps the labeled [kf_slo_violations] metric, and
   the remaining budget is published as the [kf_slo_error_budget]
   gauge, so the scrape endpoint exposes SLO state with no extra
   wiring.  There is no unlabeled process counter beside them: one
   scrape counts each violation once. *)

type t = {
  name : string;
  target_us : float;
  objective : float;
  window : int;
  ring : Bytes.t;  (* 1 = violation, oldest overwritten first *)
  mutable next : int;  (* ring write cursor *)
  mutable filled : int;  (* ring occupancy, <= window *)
  mutable window_violations : int;
  mutable total : int;
  mutable violations : int;  (* lifetime *)
  mu : Mutex.t;
  m_violations : Metrics.counter;
  m_budget : Metrics.gauge;
}

let create ?(window = 1024) ~target_us ~objective name =
  if window < 1 then invalid_arg "Slo.create: window must be >= 1";
  if not (objective > 0.0 && objective < 1.0) then
    invalid_arg "Slo.create: objective must be in (0, 1)";
  if not (target_us > 0.0) then
    invalid_arg "Slo.create: target_us must be > 0";
  let labels = [ ("model", name) ] in
  {
    name;
    target_us;
    objective;
    window;
    ring = Bytes.make window '\000';
    next = 0;
    filled = 0;
    window_violations = 0;
    total = 0;
    violations = 0;
    mu = Mutex.create ();
    m_violations =
      Metrics.counter ~help:"SLO violations (late or failed requests)."
        ~labels "kf_slo_violations";
    m_budget =
      Metrics.gauge
        ~help:"Remaining rolling error budget (1 = untouched, 0 = spent)."
        ~labels "kf_slo_error_budget";
  }

let name t = t.name

let target_us t = t.target_us

let objective t = t.objective

let window t = t.window

(* allowed violations in the *current* window occupancy: (1 - o) * n.
   Computed against occupancy rather than capacity so a barely-warm
   window is not artificially generous. *)
let allowed_of t ~filled = (1.0 -. t.objective) *. float_of_int filled

let budget_remaining_locked t =
  if t.filled = 0 then 1.0
  else
    let allowed = allowed_of t ~filled:t.filled in
    if allowed <= 0.0 then if t.window_violations = 0 then 1.0 else 0.0
    else
      Float.max 0.0
        (Float.min 1.0 (1.0 -. (float_of_int t.window_violations /. allowed)))

let record t ~latency_us ~ok =
  let violation = (not ok) || latency_us > t.target_us in
  Mutex.lock t.mu;
  (* evict the outcome this slot previously held *)
  if t.filled = t.window && Bytes.get t.ring t.next = '\001' then
    t.window_violations <- t.window_violations - 1;
  Bytes.set t.ring t.next (if violation then '\001' else '\000');
  t.next <- (t.next + 1) mod t.window;
  if t.filled < t.window then t.filled <- t.filled + 1;
  t.total <- t.total + 1;
  if violation then begin
    t.window_violations <- t.window_violations + 1;
    t.violations <- t.violations + 1
  end;
  let budget = budget_remaining_locked t in
  Mutex.unlock t.mu;
  if violation then Metrics.inc t.m_violations;
  Metrics.set t.m_budget budget

let total t = t.total

let violations t = t.violations

let window_total t =
  Mutex.lock t.mu;
  let n = t.filled in
  Mutex.unlock t.mu;
  n

let window_violations t =
  Mutex.lock t.mu;
  let v = t.window_violations in
  Mutex.unlock t.mu;
  v

let budget_remaining t =
  Mutex.lock t.mu;
  let b = budget_remaining_locked t in
  Mutex.unlock t.mu;
  b

let compliant t = budget_remaining t > 0.0

(* Deadline-aware shedding decision.  Two conditions must both hold:
   the request is *predicted* to violate (its estimated completion time
   exceeds the target), and the rolling budget lacks the headroom to
   absorb one more violation.  Predicted-compliant requests are never
   shed (shedding them buys nothing), and a healthy budget absorbs
   predicted violations rather than turning them away — the budget
   exists to be spent on exactly this.  Answering [true] means the
   caller should fail fast now (a shed costs the client microseconds)
   instead of slowly (a served violation costs the full queue wait and
   then still misses the deadline). *)
let deadline_shed ?(headroom = 0.25) t ~estimated_us =
  if not (headroom >= 0.0 && headroom <= 1.0) then
    invalid_arg "Slo.deadline_shed: headroom must be in [0, 1]";
  estimated_us > t.target_us && budget_remaining t < headroom

let to_json t =
  Mutex.lock t.mu;
  let budget = budget_remaining_locked t in
  let filled = t.filled and wv = t.window_violations in
  Mutex.unlock t.mu;
  Json.Obj
    [
      ("model", Json.Str t.name);
      ("target_us", Json.Float t.target_us);
      ("objective", Json.Float t.objective);
      ("window", Json.Int t.window);
      ("total", Json.Int t.total);
      ("violations", Json.Int t.violations);
      ("window_total", Json.Int filled);
      ("window_violations", Json.Int wv);
      ("error_budget", Json.Float budget);
    ]
