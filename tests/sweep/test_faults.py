"""Tests for the fault-tolerance primitives: retry policies, fault plans,
failure records and the worker-side timeout guard."""

from __future__ import annotations

import json
import time

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InjectedFaultError, TaskTimeoutError
from repro.sweep.faults import (
    ENV_FAULTS,
    FAULT_MODELS,
    AttemptRecord,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    TaskFailure,
    failure_payload,
    task_timeout_guard,
    timeout_enforcement_available,
    trigger_fault,
)

HASH_A = "a" * 64
HASH_B = "b" * 64


class TestRetryPolicy:
    def test_defaults_mean_no_retries(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert policy.retries == 0

    def test_from_any_accepts_int_as_retry_count(self):
        policy = RetryPolicy.from_any(2)
        assert policy.max_attempts == 3
        assert policy.retries == 2

    def test_from_any_accepts_mapping_with_retries_alias(self):
        policy = RetryPolicy.from_any({"retries": 1, "backoff": 0.5})
        assert policy.max_attempts == 2
        assert policy.backoff == 0.5

    def test_from_any_passthrough_and_none(self):
        policy = RetryPolicy(max_attempts=4)
        assert RetryPolicy.from_any(policy) is policy
        assert RetryPolicy.from_any(None) == RetryPolicy()

    def test_from_any_rejects_bools_and_unknown_keys(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy.from_any(True)
        with pytest.raises(ConfigurationError, match="unknown"):
            RetryPolicy.from_any({"attempts": 3})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(crash_requeues=-1)

    def test_delay_is_zero_without_backoff(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.delay(HASH_A, 1) == 0.0

    def test_delay_is_deterministic_per_hash_and_attempt(self):
        policy = RetryPolicy(max_attempts=4, backoff=0.5, jitter=0.5)
        first = policy.delay(HASH_A, 1)
        assert first == policy.delay(HASH_A, 1)
        assert policy.delay(HASH_A, 2) != first or policy.delay(HASH_B, 1) != first

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(
            max_attempts=10, backoff=1.0, backoff_multiplier=2.0, max_backoff=3.0, jitter=0.0
        )
        assert policy.delay(HASH_A, 1) == 1.0
        assert policy.delay(HASH_A, 2) == 2.0
        assert policy.delay(HASH_A, 3) == 3.0  # capped
        assert policy.delay(HASH_A, 7) == 3.0

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(max_attempts=5, backoff=1.0, jitter=0.25)
        for attempt in range(1, 5):
            delay = policy.delay(HASH_A, attempt)
            base = min(1.0 * 2.0 ** (attempt - 1), policy.max_backoff)
            assert base * 0.75 <= delay <= base * 1.25


POLICIES = st.builds(
    RetryPolicy,
    max_attempts=st.integers(1, 5),
    backoff=st.sampled_from((0.0, 0.5)),
    jitter=st.sampled_from((0.0, 0.5)),
    crash_requeues=st.integers(0, 4),
)
KINDS = ("exception", "timeout", "crash")


class TestAttemptRecord:
    @given(policy=POLICIES, kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=12))
    def test_each_charge_follows_the_retry_policy_rule(self, policy, kinds):
        task = SimpleNamespace(index=3)
        record = AttemptRecord()
        failures = crashes = 0
        for kind in kinds:
            failed = record.attempt
            payload = {
                "type": "Boom",
                "message": f"attempt {failed}",
                "kind": kind,
                "injected": True,
                "attempt": failed,
                "traceback": "trace",
            }
            delay, quarantine = record.charge(policy, task, HASH_A, payload)
            if kind == "crash":
                crashes += 1
                exhausted = crashes == policy.crash_requeues + 1
            else:
                failures += 1
                exhausted = failures == policy.max_attempts
            if exhausted:
                assert delay == 0.0
                assert quarantine == TaskFailure(
                    index=3,
                    task_hash=HASH_A,
                    attempts=failed,
                    error_type="Boom",
                    message=f"attempt {failed}",
                    kind=kind,
                    injected=True,
                    traceback="trace",
                )
                return
            assert quarantine is None
            assert record.attempt == 1 + failures + crashes == failed + 1
            assert (record.failures, record.crashes) == (failures, crashes)
            assert delay == (0.0 if kind == "crash" else policy.delay(HASH_A, failed))

    def test_a_record_resumes_from_a_queue_entry_triple(self):
        # A distributed worker rebuilds the record from the entry it claimed.
        record = AttemptRecord(attempt=3, failures=1, crashes=1)
        crash = {"kind": "crash", "attempt": 3}
        policy = RetryPolicy(crash_requeues=1)
        delay, quarantine = record.charge(policy, SimpleNamespace(index=0), HASH_A, crash)
        assert (delay, record.attempt, record.crashes) == (0.0, 4, 2)
        assert quarantine is not None and quarantine.attempts == 3 and quarantine.kind == "crash"


class TestFaultRules:
    def test_rule_matches_by_hash_prefix_and_attempt(self):
        rule = FaultRule(fault="task-exception", task_hash=HASH_A[:8], attempts=(1,))
        assert rule.matches(HASH_A, 0, 1)
        assert not rule.matches(HASH_A, 0, 2)
        assert not rule.matches(HASH_B, 0, 1)

    def test_rule_matches_by_index(self):
        rule = FaultRule(fault="task-hang", index=3)
        assert rule.matches(HASH_A, 3, 1)
        assert not rule.matches(HASH_A, 2, 1)

    def test_empty_attempts_match_every_attempt(self):
        rule = FaultRule(fault="task-exception", index=0, attempts=())
        for attempt in (1, 2, 5):
            assert rule.matches(HASH_A, 0, attempt)

    def test_unknown_fault_model_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultRule(fault="cosmic-ray")
        assert "task-exception" in FAULT_MODELS

    def test_plan_first_matching_rule_wins(self):
        plan = FaultPlan(
            rules=(
                FaultRule(fault="task-exception", index=0),
                FaultRule(fault="task-hang", index=0),
            )
        )
        rule = plan.match(HASH_A, 0, 1)
        assert rule is not None and rule.fault == "task-exception"
        assert plan.match(HASH_A, 1, 1) is None

    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(
            rules=(
                FaultRule(fault="worker-kill", index=2, attempts=(1,)),
                FaultRule(fault="task-hang", task_hash="ab", options={"seconds": 0.1}),
            )
        )
        rebuilt = FaultPlan.from_any(json.loads(json.dumps(plan.to_dict())))
        assert rebuilt == plan

    def test_from_any_accepts_rule_sequences_and_none(self):
        rule = FaultRule(fault="task-exception", index=0)
        plan = FaultPlan.from_any([rule])
        assert plan.rules == (rule,)
        assert not FaultPlan.from_any(None)
        assert FaultPlan.from_any(plan) is plan

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULTS, raising=False)
        assert not FaultPlan.from_env()
        monkeypatch.setenv(
            ENV_FAULTS, '{"rules": [{"fault": "task-exception", "index": 1}]}'
        )
        plan = FaultPlan.from_env()
        assert plan and plan.rules[0].index == 1
        monkeypatch.setenv(ENV_FAULTS, "not json")
        with pytest.raises(ConfigurationError):
            FaultPlan.from_env()

    def test_rule_dict_with_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            FaultRule.from_dict({"fault": "task-exception", "when": "always"})

    def test_trigger_exception_raises_injected_fault(self):
        rule = FaultRule(fault="task-exception", options={"message": "boom"})
        with pytest.raises(InjectedFaultError, match="boom"):
            trigger_fault(rule)

    def test_worker_kill_outside_a_worker_degrades_to_an_exception(self):
        # The coordinator process must never be os._exit()ed by a plan.
        rule = FaultRule(fault="worker-kill")
        with pytest.raises(InjectedFaultError):
            trigger_fault(rule)


#: Rule inputs that used to crash without a named error, be misread or be
#: ignored, with the field each ConfigurationError names.
BAD_RULES = [
    pytest.param({"fault": "task-exception", "attempts": "x"}, r"attempts='x'", id="attempts-string"),
    pytest.param({"fault": "task-exception", "attempts": "12"}, r"attempts='12'", id="attempts-digits"),
    pytest.param({"fault": "task-exception", "attempts": 2}, r"attempts=2", id="attempts-int"),
    pytest.param({"fault": "task-exception", "attempts": [0, -1]}, r"attempts=\[0, -1\]", id="attempts-below-1"),
    pytest.param({"fault": "task-exception", "attempts": [True]}, r"attempts=\[True\]", id="attempts-bool"),
    pytest.param({"fault": "task-exception", "index": -3}, r"index=-3", id="index-negative"),
    pytest.param({"fault": "task-exception", "index": "2"}, r"index='2'", id="index-string"),
    pytest.param({"fault": "task-exception", "task_hash": 7}, r"task_hash=7", id="task-hash-int"),
    pytest.param({"fault": "task-hang", "options": {"seconds": "long"}}, r"options.seconds='long'", id="hang-seconds-string"),
    pytest.param({"fault": "task-hang", "options": {"seconds": float("inf")}}, r"options.seconds=inf", id="hang-seconds-inf"),
    pytest.param({"fault": "task-hang", "options": {"seconds": -1}}, r"options.seconds=-1", id="hang-seconds-negative"),
    pytest.param({"fault": "task-hang", "options": {"secs": 5}}, r"\['secs'\].*'seconds'", id="hang-unknown-option"),
    pytest.param({"fault": "worker-kill", "options": {"exit_code": 1.5}}, r"options.exit_code=1.5", id="kill-exit-code-float"),
    pytest.param({"fault": "worker-kill", "options": {"seconds": 1}}, r"\['seconds'\].*'exit_code'", id="kill-unknown-option"),
    pytest.param({"fault": "task-exception", "options": {"message": 3}}, r"options.message=3", id="exception-message-int"),
    pytest.param({"fault": "task-exception", "options": {"exit_code": 3}}, r"\['exit_code'\].*'message'", id="exception-unknown-option"),
    pytest.param({"fault": "task-exception", "options": ["message"]}, r"options=\['message'\]", id="options-list"),
]


class TestFaultRuleInputs:
    @pytest.mark.parametrize("mapping, named", BAD_RULES)
    def test_a_bad_field_raises_a_named_error(self, mapping, named):
        with pytest.raises(ConfigurationError, match=named):
            FaultRule.from_dict(mapping)

    @pytest.mark.parametrize(
        "raw",
        [
            # The plans of the CI chaos jobs.
            '{"rules": [{"fault": "worker-kill", "index": 2, "attempts": [1]}]}',
            '{"rules": [{"fault": "worker-kill", "index": 2, "attempts": [1, 2, 3, 4]}]}',
            '{"rules": [{"fault": "task-hang", "task_hash": "ab", "attempts": null,'
            ' "options": {"seconds": 0.5}}, {"fault": "task-exception", "index": 0,'
            ' "options": {"message": "boom"}}, {"fault": "worker-kill",'
            ' "options": {"exit_code": 3}}]}',
        ],
    )
    def test_valid_plans_parse_unchanged(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_FAULTS, raw)
        plan = FaultPlan.from_env()
        expected = json.loads(raw)["rules"]
        for rule, mapping in zip(plan.rules, expected):
            attempts = mapping.get("attempts", [1])
            assert rule.fault == mapping["fault"]
            assert rule.index == mapping.get("index")
            assert rule.task_hash == mapping.get("task_hash")
            assert rule.attempts == (() if attempts is None else tuple(attempts))
            assert rule.options == mapping.get("options", {})
        assert FaultPlan.from_any(plan.to_dict()) == plan


class TestTaskFailure:
    def test_round_trip(self):
        failure = TaskFailure(
            index=3,
            task_hash=HASH_A,
            attempts=2,
            error_type="ValueError",
            message="bad",
            kind="exception",
            injected=False,
            traceback="trace",
        )
        assert TaskFailure.from_dict(failure.to_dict()) == failure

    def test_failure_payload_classifies_timeouts_and_injections(self):
        timeout = failure_payload(TaskTimeoutError(1.5), attempt=2)
        assert timeout["kind"] == "timeout"
        assert timeout["attempt"] == 2
        injected = failure_payload(InjectedFaultError("x"), attempt=1)
        assert injected["injected"] is True
        plain = failure_payload(ValueError("y"), attempt=1)
        assert plain["kind"] == "exception" and plain["injected"] is False


class TestTimeoutGuard:
    @pytest.mark.skipif(
        not timeout_enforcement_available(), reason="needs SIGALRM on the main thread"
    )
    def test_guard_interrupts_a_hang(self):
        start = time.monotonic()
        with pytest.raises(TaskTimeoutError):
            with task_timeout_guard(0.2):
                time.sleep(5.0)
        assert time.monotonic() - start < 2.0

    @pytest.mark.skipif(
        not timeout_enforcement_available(), reason="needs SIGALRM on the main thread"
    )
    def test_guard_is_a_noop_when_work_finishes_in_time(self):
        with task_timeout_guard(5.0) as armed:
            assert armed
        # The timer must be disarmed: sleeping past nothing raises nothing.
        time.sleep(0.01)

    def test_guard_without_timeout_never_arms(self):
        with task_timeout_guard(None) as armed:
            assert not armed
