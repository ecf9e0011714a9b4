import verdict_hash


def test_toy_digest_is_stable_and_counts_every_op():
    lines = []
    first = verdict_hash.digest([1], "toy", lines.append)
    assert first == verdict_hash.digest([1], "toy")
    assert first[1] == len(lines) >= 3
    assert {line.split()[0] for line in lines} == set(verdict_hash.WORKLOADS)


def test_an_exception_is_hashed_by_type_message_and_index():
    def broken():
        exc = ValueError("link 2 failed")
        exc.index = 2
        raise exc

    assert verdict_hash.verdict_bytes(broken) == (
        b'{"index":2,"message":"link 2 failed","raises":"ValueError"}')
