"""Built-in scenario presets, emitted verbatim so comments survive.

``fixed_rules`` is the immutable-protocol regime: one state, identity
kernel, a grim-trigger population that never sees a trigger. ``mutable_core``
is the volatile regime: three rule states, a kernel that leaves each state
with probability 0.1 per round, mutation-triggered grim punishment, one
meta investor lobbying for the baseline rules, and an institutional noise
path. All payoff numbers are illustrative preset constants.
"""

from __future__ import annotations

FIXED_RULES = """\
# Preset: fixed_rules
# Immutable protocol: a single rule state behind an identity kernel.
# Payoff numbers are illustrative constants, not measured values.
schema_version: 1
name: fixed_rules
horizon: 200
replica_count: 100
master_seed: 42
initial_state: 0
trigger_on_mutation: false
spiral_threshold: 0.5
miners:
  - share: 0.5
    strategy: GrimTrigger
  - share: 0.5
    strategy: GrimTrigger
game:
  lottery_mode: false
  states:
    - {id: 0, label: baseline}
  payoffs:
    baseline:
      CC: [3.0, 3.0]
      CD: [0.0, 5.0]
      DC: [5.0, 0.0]
      DD: [1.0, 1.0]
kernel:
  matrix:
    - [1.0]
discount:
  delta: 0.9
risk_aversion:
  eta: 0.0
"""

MUTABLE_CORE = """\
# Preset: mutable_core
# Mutable protocol: three rule states, 0.1 per-round mutation rate,
# grim punishment triggered by rule changes, one meta investor lobbying
# for the baseline rules, and an institutional-noise discount path.
# Payoff numbers are illustrative constants, not measured values.
# The scenario discount 0.5 sits below the mutation-adjusted cooperation
# threshold of every state, so defection spirals are expected.
schema_version: 1
name: mutable_core
horizon: 200
replica_count: 100
master_seed: 7
initial_state: 0
trigger_on_mutation: true
spiral_threshold: 0.5
post_mutation_value: 0.0
miners:
  - share: 0.3
    strategy: GrimTrigger
  - share: 0.3
    strategy: GrimTrigger
  - share: 0.2
    strategy: TitForTat
  - share: 0.2
    strategy: MetaInvestor
    meta_budget: 0.25
    preferred_state: 0
game:
  lottery_mode: false
  states:
    - {id: 0, label: baseline}
    - {id: 1, label: restricted_capacity}
    - {id: 2, label: fee_spike}
  payoffs:
    # Linear public-goods shape: cooperators split a pot scaled by the
    # cooperating share of the others; defectors add a fixed bonus.
    # restricted_capacity lowers the cooperative pot, fee_spike raises
    # the defection bonus.
    baseline:
      CCCC: [3.0, 3.0, 3.0, 3.0]
      CCCD: [2.0, 2.0, 2.0, 5.0]
      CCDC: [2.0, 2.0, 5.0, 2.0]
      CCDD: [1.0, 1.0, 4.0, 4.0]
      CDCC: [2.0, 5.0, 2.0, 2.0]
      CDCD: [1.0, 4.0, 1.0, 4.0]
      CDDC: [1.0, 4.0, 4.0, 1.0]
      CDDD: [0.0, 3.0, 3.0, 3.0]
      DCCC: [5.0, 2.0, 2.0, 2.0]
      DCCD: [4.0, 1.0, 1.0, 4.0]
      DCDC: [4.0, 1.0, 4.0, 1.0]
      DCDD: [3.0, 0.0, 3.0, 3.0]
      DDCC: [4.0, 4.0, 1.0, 1.0]
      DDCD: [3.0, 3.0, 0.0, 3.0]
      DDDC: [3.0, 3.0, 3.0, 0.0]
      DDDD: [2.0, 2.0, 2.0, 2.0]
    restricted_capacity:
      CCCC: [2.4, 2.4, 2.4, 2.4]
      CCCD: [1.6, 1.6, 1.6, 4.4]
      CCDC: [1.6, 1.6, 4.4, 1.6]
      CCDD: [0.8, 0.8, 3.6, 3.6]
      CDCC: [1.6, 4.4, 1.6, 1.6]
      CDCD: [0.8, 3.6, 0.8, 3.6]
      CDDC: [0.8, 3.6, 3.6, 0.8]
      CDDD: [0.0, 2.8, 2.8, 2.8]
      DCCC: [4.4, 1.6, 1.6, 1.6]
      DCCD: [3.6, 0.8, 0.8, 3.6]
      DCDC: [3.6, 0.8, 3.6, 0.8]
      DCDD: [2.8, 0.0, 2.8, 2.8]
      DDCC: [3.6, 3.6, 0.8, 0.8]
      DDCD: [2.8, 2.8, 0.0, 2.8]
      DDDC: [2.8, 2.8, 2.8, 0.0]
      DDDD: [2.0, 2.0, 2.0, 2.0]
    fee_spike:
      CCCC: [3.0, 3.0, 3.0, 3.0]
      CCCD: [2.0, 2.0, 2.0, 5.7]
      CCDC: [2.0, 2.0, 5.7, 2.0]
      CCDD: [1.0, 1.0, 4.7, 4.7]
      CDCC: [2.0, 5.7, 2.0, 2.0]
      CDCD: [1.0, 4.7, 1.0, 4.7]
      CDDC: [1.0, 4.7, 4.7, 1.0]
      CDDD: [0.0, 3.7, 3.7, 3.7]
      DCCC: [5.7, 2.0, 2.0, 2.0]
      DCCD: [4.7, 1.0, 1.0, 4.7]
      DCDC: [4.7, 1.0, 4.7, 1.0]
      DCDD: [3.7, 0.0, 3.7, 3.7]
      DDCC: [4.7, 4.7, 1.0, 1.0]
      DDCD: [3.7, 3.7, 0.0, 3.7]
      DDDC: [3.7, 3.7, 3.7, 0.0]
      DDDD: [2.7, 2.7, 2.7, 2.7]
kernel:
  matrix:
    - [0.9, 0.05, 0.05]
    - [0.05, 0.9, 0.05]
    - [0.05, 0.05, 0.9]
discount:
  delta: 0.5
risk_aversion:
  eta: 0.5
noise:
  baseline_rate: 0.03
  segments:
    - {start: 0, value: 0.0}
    - {start: 50, value: 0.05}
meta:
  enabled: true
  influence_strength: 0.4
  contest_exponent: 1.0
investment:
  upfront_cost: 250.0
  expected_returns: [100.0, 100.0, 100.0, 100.0, 100.0]
"""

PRESETS: dict[str, str] = {
    "fixed_rules": FIXED_RULES,
    "mutable_core": MUTABLE_CORE,
}

