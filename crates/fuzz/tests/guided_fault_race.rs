//! Fault-injection proof for the guided campaign: with the VM deliberately
//! miscompiled (the `fault-injection` feature offsets every runtime integer
//! addition), a guided campaign must find a battery disagreement at least
//! as fast — in iterations-to-find, on the same seed stream — as a blind
//! campaign, and the finding must shrink to a replayable repro.
//!
//! Guidance must never *hide* a fault: mutation only changes which programs
//! run, and the battery inspects every one of them. This test lives in its
//! own integration-test binary because the fault offset is process-global.
//!
//! Both campaigns are deterministic, so the iteration counts compared here
//! are exact, not statistics.

use inseq_fuzz::campaign::{run_campaign, CampaignConfig, CampaignResult};
use inseq_fuzz::oracles::{disagrees, run_oracle, Oracle, OracleOutcome};
use inseq_fuzz::shrink::shrink;
use inseq_lang::fault::{set_vm_add_offset, vm_add_offset};

const BUDGET: usize = 800;

fn campaign(guided: bool) -> CampaignResult {
    run_campaign(
        &CampaignConfig {
            seed: 0,
            iters: 300,
            guided,
            budget: BUDGET,
            ..CampaignConfig::default()
        },
        None,
    )
}

#[test]
fn guided_campaign_finds_the_injected_fault_at_least_as_fast_as_blind() {
    assert_eq!(vm_add_offset(), 0, "offset must start at identity");
    set_vm_add_offset(1);

    let guided = campaign(true);
    let blind = campaign(false);

    // Reset before any assertion can exit the test early: later tests in
    // other binaries never see the fault, but assertions below re-run
    // oracles and need the *injected* state, so heal only at the end.
    let guided_find = guided.finding.as_ref().map(|f| f.iteration);
    let blind_find = blind.finding.as_ref().map(|f| f.iteration);

    let Some(found_at) = guided_find else {
        set_vm_add_offset(0);
        panic!("300 guided iterations never tripped the vm-interp oracle");
    };
    // Blind finding is allowed to not exist within the window; guided must
    // then have strictly won. When both find, guided may not be slower.
    if let Some(blind_at) = blind_find {
        assert!(
            found_at <= blind_at,
            "guided took {found_at} iterations, blind only {blind_at}"
        );
    }

    // The finding shrinks to a still-disagreeing repro…
    let finding = guided.finding.as_ref().unwrap();
    assert_eq!(finding.disagreement.oracle, Oracle::VmInterp);
    let small = shrink(&finding.spec, |candidate| {
        disagrees(Oracle::VmInterp, candidate, BUDGET)
    });
    let still_disagrees = disagrees(Oracle::VmInterp, &small, BUDGET);

    // …and healing the VM clears it, pinning the blame on the fault.
    set_vm_add_offset(0);
    assert!(still_disagrees, "shrunk repro no longer disagrees");
    assert!(
        matches!(
            run_oracle(Oracle::VmInterp, &small, BUDGET),
            Ok(OracleOutcome::Checked)
        ),
        "repro still disagrees after removing the fault"
    );
    assert!(
        small.stmt_count() <= 6,
        "expected a tiny repro, got {} statements:\n{}",
        small.stmt_count(),
        inseq_lang::serial::write_spec(&small)
    );
}
