# Runs at ctest time, after the gtest discovery include files have defined
# <target>_TESTS variables. Relabels the suites that exercise the trace
# subsystem so `ctest -L trace` selects them alongside `ctest -L tsan` —
# gtest_discover_tests flattens list-valued PROPERTIES, so the multi-label
# set cannot be attached at discovery time. (set_tests_properties is the
# only property command ctest supports here, so this overwrites rather
# than appends; keep the list in sync with the suites' primary labels.)
foreach(_t IN LISTS trace_test_TESTS determinism_test_TESTS)
  set_tests_properties("${_t}" PROPERTIES LABELS "tsan;trace")
endforeach()

# The validator suite also runs under the TSan selection: its fixtures drive
# the parallel partitioner/metric/sampler paths end to end.
foreach(_t IN LISTS check_test_TESTS)
  set_tests_properties("${_t}" PROPERTIES LABELS "check;tsan")
endforeach()

# The network suite exercises the chunked LinkUsage merge across thread
# counts, so it belongs to the TSan selection too.
foreach(_t IN LISTS net_test_TESTS)
  set_tests_properties("${_t}" PROPERTIES LABELS "net;tsan")
endforeach()

# Every engine-vs-oracle diff also carries `oracle`, so `ctest -L oracle`
# runs them all; the single-label ones get it at discovery time.
foreach(_t IN LISTS partition_hep_oracle_test_TESTS
        partition_hdrf_oracle_test_TESTS sampler_oracle_test_TESTS)
  set_tests_properties("${_t}" PROPERTIES LABELS "tsan;oracle")
endforeach()
foreach(_t IN LISTS net_flowsim_oracle_test_TESTS)
  set_tests_properties("${_t}" PROPERTIES LABELS "net;oracle")
endforeach()
