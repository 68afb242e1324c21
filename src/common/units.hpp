// Unit aliases and conversions used across the Hayat libraries.
//
// All quantities are SI doubles; the aliases document intent at API
// boundaries (Kelvin for temperature, Watts for power, GHz only where the
// paper reports GHz).  Conversions are provided as constexpr helpers so
// call sites stay explicit about what unit a literal is in.
#pragma once

namespace hayat {

using Kelvin = double;    ///< absolute temperature [K]
using Celsius = double;   ///< temperature [°C] (only at I/O boundaries)
using Watts = double;     ///< power [W]
using Hertz = double;     ///< frequency [Hz]
using Seconds = double;   ///< time [s]
using Years = double;     ///< long-term time [years]
using Meters = double;    ///< length [m]
using Volts = double;     ///< electric potential [V]
using Joules = double;    ///< energy [J]

/// 0 °C in Kelvin.
inline constexpr Kelvin kZeroCelsius = 273.15;

/// Boltzmann constant over elementary charge [V/K]; VT = (k/q) * T.
inline constexpr double kBoltzmannOverCharge = 8.617333262e-5;

constexpr Kelvin celsiusToKelvin(Celsius c) { return c + kZeroCelsius; }
constexpr Celsius kelvinToCelsius(Kelvin k) { return k - kZeroCelsius; }

constexpr Hertz gigahertz(double ghz) { return ghz * 1e9; }
constexpr double toGigahertz(Hertz f) { return f / 1e9; }

constexpr Meters millimeters(double mm) { return mm * 1e-3; }

/// Mean tropical year, the unit used by the paper's aging model (Eq. 7).
inline constexpr Seconds kSecondsPerYear = 365.2425 * 24.0 * 3600.0;

constexpr Seconds yearsToSeconds(Years y) { return y * kSecondsPerYear; }
constexpr Years secondsToYears(Seconds s) { return s / kSecondsPerYear; }

}  // namespace hayat
