"""
Hierarchical underwriting
=========================

Specialist layer-1 insurers certify individual risk domains at a discount;
a layer-2 master insurer posts the protocol-facing stake against whatever
risk remains. Premium revenue is shared back down the stack.
"""

from insured_agents import (
    AccountId,
    Certificate,
    Ledger,
    Role,
    compose_stack,
    format_units,
    stack_premium,
    underwrite_stack,
    units,
)

certs = [
    Certificate(issuer="safety-ins", domain="safety", risk_discount=0.5),
    Certificate(issuer="fin-ins", domain="financial", risk_discount=0.4),
]

stack = compose_stack(0.10, certs, master="master-ins", layer1_cut=0.5)
print(f"base risk 0.10 with discounts 0.5 and 0.4")
print(f"  residual risk: {stack.residual_risk}")

premium = stack_premium(stack, units(100), loading=0.2)
print(f"  premium on 100 coverage at 20% loading: {format_units(premium)}")

# Put it on the ledger at that quote: the master posts the whole stake, then
# half the premium is shared with layer 1 in proportion to the risk each took
# off. A layer-1 wallet opens with its first share.
ledger = Ledger()
ledger.deposit(AccountId(Role.AGENT_WALLET, "agent"), units(1000))
ledger.deposit(AccountId(Role.INSURER_WALLET, "master-ins"), units(1000))

policy = underwrite_stack(
    ledger, "agent", stack,
    policy_id="pol-1", coverage=units(100), deductible=units(10),
    bond=units(5), premium=premium, claim_deadline=20, expiry_tick=100,
    tick=0,
)
print(f"\nmaster escrowed stake: {format_units(policy.escrowed_stake)}")
for issuer in ("safety-ins", "fin-ins"):
    share = ledger.balance(AccountId(Role.INSURER_WALLET, issuer))
    print(f"  {issuer} premium share: {format_units(share)}")
