//! Cross-crate integration: the full admission pipeline with the real
//! DAbR model, the paper's three policies, and live metrics/audit/ledger.

use aipow::framework::FrameworkBuilder;
use aipow::prelude::*;
use aipow::reputation::eval;
use aipow::reputation::synth::ClassLabel;
use std::net::IpAddr;
use std::sync::Arc;

fn parse_ip(s: &str) -> IpAddr {
    s.parse().expect("valid test ip")
}

/// Builds a framework around a freshly trained DAbR model; returns the
/// framework plus one benign and one malicious test feature vector.
fn dabr_framework(policy: impl Policy + 'static) -> (Framework, FeatureVector, FeatureVector) {
    let dataset = DatasetSpec::default().with_seed(77).generate();
    let (train, test) = dataset.split(0.8, 77);
    let model = DabrModel::fit(&train, &Default::default());

    // Pick unambiguous representatives so the test is stable: the most
    // benign-scored benign sample and the most malicious-scored bot.
    let mut benign = (f64::INFINITY, FeatureVector::zeros());
    let mut hostile = (f64::NEG_INFINITY, FeatureVector::zeros());
    for s in test.samples() {
        let score = model.score(&s.features).value();
        if s.label == ClassLabel::Benign && score < benign.0 {
            benign = (score, s.features);
        }
        if s.label == ClassLabel::Malicious && score > hostile.0 {
            hostile = (score, s.features);
        }
    }

    let framework = FrameworkBuilder::new()
        .master_key([0x55; 32])
        .model(model)
        .policy(policy)
        .build()
        .expect("valid framework");
    (framework, benign.1, hostile.1)
}

#[test]
fn dabr_driven_difficulties_order_clients() {
    let (framework, benign, hostile) = dabr_framework(LinearPolicy::policy2());
    let benign_issued = framework
        .handle_request(parse_ip("10.0.0.1"), &benign)
        .challenge()
        .unwrap();
    let hostile_issued = framework
        .handle_request(parse_ip("10.0.0.2"), &hostile)
        .challenge()
        .unwrap();
    assert!(
        hostile_issued.difficulty.bits() >= benign_issued.difficulty.bits() + 4,
        "benign d={} hostile d={}",
        benign_issued.difficulty.bits(),
        hostile_issued.difficulty.bits()
    );
}

#[test]
fn end_to_end_with_each_paper_policy() {
    let policies: Vec<Box<dyn Policy>> = vec![
        Box::new(LinearPolicy::policy1()),
        Box::new(LinearPolicy::policy2()),
        Box::new(ErrorRangePolicy::new(2.0, 5)),
    ];
    for policy in policies {
        let name = policy.name().to_string();
        let (framework, benign, _) = dabr_framework(policy);
        let ip = parse_ip("10.1.0.1");
        let issued = framework.handle_request(ip, &benign).challenge().unwrap();
        let report = solve(&issued.challenge, ip, &SolverOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        framework
            .handle_solution(&report.solution, ip)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let snap = framework.metrics().snapshot();
        assert_eq!(snap.solutions_accepted, 1, "{name}");
    }
}

#[test]
fn hostile_clients_accumulate_more_cost() {
    let (framework, benign, hostile) = dabr_framework(LinearPolicy::policy2());
    let benign_ip = parse_ip("10.2.0.1");
    let hostile_ip = parse_ip("10.2.0.2");

    for (ip, features) in [(benign_ip, &benign), (hostile_ip, &hostile)] {
        for _ in 0..3 {
            let issued = framework.handle_request(ip, features).challenge().unwrap();
            let report = solve(&issued.challenge, ip, &SolverOptions::default()).unwrap();
            framework.handle_solution(&report.solution, ip).unwrap();
        }
    }

    let ledger = framework.ledger();
    assert!(
        ledger.total(hostile_ip) > 10.0 * ledger.total(benign_ip),
        "hostile cost {} vs benign cost {}",
        ledger.total(hostile_ip),
        ledger.total(benign_ip)
    );
    // The hostile client tops the ledger.
    assert_eq!(ledger.top(1)[0].0, hostile_ip);
}

#[test]
fn audit_log_tells_the_whole_story() {
    let (framework, benign, _) = dabr_framework(LinearPolicy::policy1());
    let ip = parse_ip("10.3.0.1");
    let issued = framework.handle_request(ip, &benign).challenge().unwrap();
    let report = solve(&issued.challenge, ip, &SolverOptions::default()).unwrap();
    framework.handle_solution(&report.solution, ip).unwrap();
    // Replay it: rejected and audited.
    let _ = framework.handle_solution(&report.solution, ip);

    let events = framework.audit().snapshot();
    assert_eq!(events.len(), 3);
    use aipow::framework::AuditKind;
    use aipow::pow::VerifyError;
    assert_eq!(
        events[0].kind,
        AuditKind::SolutionRejected {
            error: VerifyError::Replayed
        }
    );
    assert!(matches!(events[1].kind, AuditKind::SolutionAccepted { .. }));
    assert!(matches!(events[2].kind, AuditKind::ChallengeIssued { .. }));
}

#[test]
fn policy3_uses_measured_epsilon() {
    // The intended deployment loop: estimate ϵ on held-out data, feed it
    // to Policy 3, and verify issued difficulties stay inside the paper's
    // interval for a known score.
    let dataset = DatasetSpec::default().with_seed(31).generate();
    let (train, test) = dataset.split(0.8, 31);
    let model = DabrModel::fit(&train, &Default::default());
    let epsilon = eval::estimate_epsilon(&model, &test);
    assert!(epsilon > 0.0);

    let policy = ErrorRangePolicy::from_estimated_epsilon(epsilon, 8);
    let score = ReputationScore::new(6.0).unwrap();
    let (lo, hi) = policy.interval(score);
    let ctx = aipow::policy::PolicyContext::default();
    for _ in 0..100 {
        let d = policy.difficulty_for(score, &ctx).bits();
        assert!((lo..=hi).contains(&d));
    }
}

#[test]
fn framework_is_shareable_across_threads() {
    let (framework, benign, _) = dabr_framework(LinearPolicy::policy1());
    let framework = Arc::new(framework);
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let framework = Arc::clone(&framework);
            std::thread::spawn(move || {
                let ip = parse_ip(&format!("10.4.0.{}", t + 1));
                for _ in 0..5 {
                    let issued = framework.handle_request(ip, &benign).challenge().unwrap();
                    let report = solve(&issued.challenge, ip, &SolverOptions::default()).unwrap();
                    framework.handle_solution(&report.solution, ip).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(framework.metrics().snapshot().solutions_accepted, 20);
}
