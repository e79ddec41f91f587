"""Step-by-step look at the motion rules for a single 5-bit agent.

Velocity accumulates pulls toward the agent's own best memory and toward the
best visible member, decays with inertia, is clamped, and then sets per-bit
flip probabilities through the logistic transfer: bit d becomes 1 when a
uniform draw u_d falls below sigmoid(v_d), as the engine's step does.
"""

import numpy as np

from orgswarm.kinematics import clamp_velocity, sigmoid, update_velocity

rng = np.random.default_rng(7)

position = np.array([0, 0, 1, 1, 0], dtype=np.int8)
personal_best = np.array([1, 0, 1, 0, 0], dtype=np.int8)
visible_best = np.array([1, 1, 1, 0, 0], dtype=np.int8)
velocity = np.zeros(5)

inertia, self_belief, prestige_bias = 0.9, 1.0, 1.8
# the two pulls as one stack: [personal best; visible best], [[C1]; [C2]]
bests = np.stack([personal_best, visible_best])
coefficients = np.array([[self_belief], [prestige_bias]])
v_max = 4.0

print("dim:            ", list(range(5)))
print("position:       ", position.tolist())
print("personal best:  ", personal_best.tolist())
print("visible best:   ", visible_best.tolist())
print()

for t in range(1, 6):
    velocity = update_velocity(velocity, position, bests, inertia, coefficients)
    velocity = clamp_velocity(velocity, v_max)
    probs = sigmoid(velocity)
    position = (rng.random(position.shape) < probs).astype(np.int8)
    print(f"t={t}  velocity {np.round(velocity, 2).tolist()}")
    print(f"     P(bit=1) {np.round(probs, 3).tolist()}")
    print(f"     position {position.tolist()}")

# where position agrees with both reference points, the pull is zero and the
# velocity decays geometrically with the inertia weight -- bits sampled near
# sigmoid(0)=0.5 keep exploring until memory improves.
