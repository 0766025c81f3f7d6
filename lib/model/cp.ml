type t = {
  id : int;
  label : string;
  alpha : float;
  theta_hat : float;
  demand : Demand.t;
  v : float;
  phi : float;
}

let make ?label ?(v = 0.) ?(phi = 0.) ~id ~alpha ~theta_hat ~demand () =
  if not (alpha > 0. && alpha <= 1.) then
    invalid_arg "Cp.make: alpha outside (0, 1]";
  if theta_hat <= 0. then invalid_arg "Cp.make: theta_hat <= 0";
  if v < 0. then invalid_arg "Cp.make: v < 0";
  if phi < 0. then invalid_arg "Cp.make: phi < 0";
  let label =
    match label with Some l -> l | None -> Printf.sprintf "cp-%d" id
  in
  { id; label; alpha; theta_hat; demand; v; phi }

let with_v t v =
  if v < 0. then invalid_arg "Cp.with_v: v < 0";
  { t with v }

let with_phi t phi =
  if phi < 0. then invalid_arg "Cp.with_phi: phi < 0";
  { t with phi }

(* [Float.min]/[Float.max] without their [caml_signbit] calls; see the
   copy in [Equilibrium] for why each hot module keeps its own. *)
let[@inline] fmin x y = if x < y then x else if y < x then y else Float.min x y
let[@inline] fmax x y = if x > y then x else if y > x then y else Float.max x y

let cap_theta t theta = fmin (fmax theta 0.) t.theta_hat

let demand_at t theta =
  Demand.eval_throughput t.demand ~theta_hat:t.theta_hat (cap_theta t theta)

let rho t ~theta =
  let theta = cap_theta t theta in
  demand_at t theta *. theta

let lambda_per_capita t ~theta = t.alpha *. rho t ~theta
let lambda_hat_per_capita t = t.alpha *. t.theta_hat

let google id =
  make ~label:"google" ~id ~alpha:1. ~theta_hat:1.
    ~demand:(Demand.exponential ~beta:0.1) ()

let netflix id =
  make ~label:"netflix" ~id ~alpha:0.3 ~theta_hat:10.
    ~demand:(Demand.exponential ~beta:3.) ()

let skype id =
  make ~label:"skype" ~id ~alpha:0.5 ~theta_hat:3.
    ~demand:(Demand.exponential ~beta:5.) ()

let pp fmt t =
  Format.fprintf fmt
    "@[<h>%s#%d(alpha=%g theta_hat=%g demand=%s v=%g phi=%g)@]" t.label t.id
    t.alpha t.theta_hat (Demand.name t.demand) t.v t.phi
