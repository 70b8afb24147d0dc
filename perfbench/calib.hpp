// Machine-speed calibration for host-time normalisation.
//
// A fixed int8 multiply-accumulate loop, compiled into its own library with
// fixed flags (see CMakeLists.txt), so that nothing in the program under
// test or in the repository's build settings can change how long it takes.
// Timing it next to a measured operation tells how fast the host is running
// at that moment; the workloads divide their host times by that speed.
#pragma once

#include <cstdint>

namespace perfbench {

// Host time of one fixed calibration pass, nanoseconds.
double calib_pass_ns();

// The reference speed. A normalised time is raw_ns * kNominalCalibNs / (the
// calibration time measured around it): the time the operation would take on
// a host whose calibration pass takes 100 us.
inline constexpr double kNominalCalibNs = 100000.0;

// Median of `passes` calibration passes taken now, nanoseconds.
double calib_median_ns(int passes);

}  // namespace perfbench
