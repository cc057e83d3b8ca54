import ipfem


def test_every_exported_name_resolves_on_the_package():
    missing = [name for name in ipfem.__all__ if not hasattr(ipfem, name)]
    assert not missing
    assert len(set(ipfem.__all__)) == len(ipfem.__all__)
