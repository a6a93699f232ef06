import speed


def test_a_slow_spell_cancels():
    # the same work at half the speed: the work and the job both take twice as long
    assert speed.at_reference_speed(4.0, 2 * speed.REF_S) == speed.at_reference_speed(2.0, speed.REF_S)
    assert speed.at_reference_speed(2.0, speed.REF_S) == 2.0


def test_the_job_runs_in_a_fresh_interpreter():
    assert speed.job() == speed.job()
    assert speed.reference_s() > 0
