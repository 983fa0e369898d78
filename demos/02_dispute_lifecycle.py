"""
A claim from filing to verdict
==============================

Drives one full dispute through the escrow ledger: underwrite a policy,
file a valid claim, have the insurer wrongly deny it, escalate, and let
the verifier settle it. Balances are printed at each step so the money
flows are visible.
"""

from insured_agents import (
    AccountId,
    ClaimValidity,
    Ledger,
    Role,
    format_units,
    units,
)

AGENT = AccountId(Role.AGENT_WALLET, "agent")
INSURER = AccountId(Role.INSURER_WALLET, "insurer")
USER = AccountId(Role.USER_WALLET, "user")

ledger = Ledger()
ledger.deposit(AGENT, units(500))
ledger.deposit(INSURER, units(500))
ledger.deposit(USER, units(500))


def show(label):
    print(f"{label:<28}"
          f" agent={format_units(ledger.balance(AGENT)):>8}"
          f" insurer={format_units(ledger.balance(INSURER)):>8}"
          f" user={format_units(ledger.balance(USER)):>8}")


show("initial")

# The insurer escrows stake covering the full loss; the agent escrows the
# deductible and pays the premium.
ledger.underwrite(
    "pol-1", "agent", "insurer",
    coverage=units(100), deductible=units(30), premium=units(1),
    bond=units(20), claim_deadline=20, expiry_tick=100, tick=0,
)
show("after underwriting")

# The agent misbehaves off-ledger and the user files for the full loss.
claim = ledger.file_claim(
    "pol-1", "user", units(100), ClaimValidity.VALID,
    incident_tick=1, tick=2,
)
ledger.respond_claim(claim.id, accept=False, tick=3)
show("after wrongful denial")

# Escalation: both disputants post the bond, winner takes both.
ledger.escalate(claim.id, tick=4)
show("after bonds posted")

ledger.adjudicate(claim.id, fee=units(50), reputation_cost=units(10), tick=5)
show("after verdict (valid)")

print(f"\nclaim state: {claim.state.value}")
print(f"total supply still {format_units(ledger.total_supply())}"
      " (fees sit in the fee sink, nothing minted or burned)")
print("the user ends whole on the claim itself (compensation + forfeited"
      " bond - fee), the denying insurer pays for the gamble")
