#include "sim/scenario_file.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/random.hpp"

namespace witrack::sim {

namespace {

std::string trim(const std::string& s) {
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos) return {};
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

std::vector<std::string> split_ws(const std::string& s) {
    std::vector<std::string> out;
    std::istringstream in(s);
    std::string token;
    while (in >> token) out.push_back(token);
    return out;
}

/// Error context: every diagnostic carries the source name and line number,
/// so a malformed campaign file points at the exact offending line.
struct Context {
    const std::string& source;
    std::size_t line;

    [[noreturn]] void fail(const std::string& message) const {
        throw std::invalid_argument(source + ":" + std::to_string(line) +
                                    ": " + message);
    }
};

double parse_double(const Context& ctx, const std::string& key,
                    const std::string& value) {
    std::size_t used = 0;
    double parsed = 0.0;
    try {
        parsed = std::stod(value, &used);
    } catch (const std::exception&) {
        used = 0;
    }
    if (value.empty() || used != value.size() || !std::isfinite(parsed))
        ctx.fail("bad number for '" + key + "': '" + value + "'");
    return parsed;
}

std::uint64_t parse_u64(const Context& ctx, const std::string& key,
                        const std::string& value) {
    // Digits only: std::stoull accepts a sign, and "-1" would wrap.
    try {
        if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos)
            throw std::invalid_argument(value);
        return std::stoull(value);
    } catch (const std::exception&) {
        ctx.fail("bad integer for '" + key + "': '" + value + "'");
    }
}

bool parse_bool(const Context& ctx, const std::string& key,
                const std::string& value) {
    if (value == "true" || value == "1") return true;
    if (value == "false" || value == "0") return false;
    ctx.fail("bad boolean for '" + key + "': '" + value +
             "' (want true or false)");
}

geom::Vec3 parse_vec3(const Context& ctx, const std::string& value) {
    double v[3] = {0.0, 0.0, 0.0};
    std::size_t pos = 0;
    for (int i = 0; i < 3; ++i) {
        const std::size_t comma = i < 2 ? value.find(',', pos) : value.size();
        if (comma == std::string::npos)
            ctx.fail("expected x,y,z coordinate, got '" + value + "'");
        v[i] = parse_double(ctx, "coordinate",
                            trim(value.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    return {v[0], v[1], v[2]};
}

rf::Material parse_wall(const Context& ctx, const std::string& value) {
    if (value == "sheetrock") return rf::materials::sheetrock();
    if (value == "concrete") return rf::materials::concrete();
    if (value == "glass") return rf::materials::glass();
    if (value == "wood") return rf::materials::wood();
    ctx.fail("unknown wall material '" + value +
             "' (want sheetrock | concrete | glass | wood)");
}

PersonSpec parse_person(const Context& ctx, const std::string& value) {
    const auto tokens = split_ws(value);
    if (tokens.empty())
        ctx.fail("person needs a motion kind (still | line | waypoints)");
    PersonSpec person;
    if (tokens[0] == "still") {
        if (tokens.size() != 2) ctx.fail("usage: person = still x,y,z");
        person.kind = PersonSpec::Kind::kStill;
        person.position = parse_vec3(ctx, tokens[1]);
        person.center_height_m = person.position.z;
    } else if (tokens[0] == "line") {
        if (tokens.size() != 4 || tokens[2] != "->")
            ctx.fail("usage: person = line x,y,z -> x,y,z");
        person.kind = PersonSpec::Kind::kLine;
        person.from = parse_vec3(ctx, tokens[1]);
        person.to = parse_vec3(ctx, tokens[3]);
        person.center_height_m = person.from.z;
    } else if (tokens[0] == "waypoints") {
        if (tokens.size() > 2) ctx.fail("usage: person = waypoints [height]");
        person.kind = PersonSpec::Kind::kWaypoints;
        if (tokens.size() == 2)
            person.center_height_m = parse_double(ctx, "height", tokens[1]);
    } else {
        ctx.fail("unknown motion kind '" + tokens[0] +
                 "' (want still | line | waypoints)");
    }
    return person;
}

hw::FaultWindow parse_fault_window(const Context& ctx,
                                   const std::string& value) {
    const auto tokens = split_ws(value);
    if (tokens.size() < 3)
        ctx.fail(
            "usage: fault = <kind> <start_s> <end_s> "
            "[rx=N] [level=|ppm=|gain=|rate=X]");
    hw::FaultWindow window;
    // Each kind's magnitude default mirrors the FaultConfig rate default,
    // so "fault = saturation 2 4" behaves like the rate-driven fault.
    if (tokens[0] == "dropout") {
        window.kind = hw::FaultWindow::Kind::kDropout;
    } else if (tokens[0] == "saturation") {
        window.kind = hw::FaultWindow::Kind::kSaturation;
        window.magnitude = 0.25;
    } else if (tokens[0] == "drift") {
        window.kind = hw::FaultWindow::Kind::kDrift;
        window.magnitude = 200.0;
    } else if (tokens[0] == "burst") {
        window.kind = hw::FaultWindow::Kind::kBurst;
        window.magnitude = 8.0;
    } else if (tokens[0] == "sweep_drop") {
        window.kind = hw::FaultWindow::Kind::kSweepDrop;
        window.magnitude = 1.0;
    } else if (tokens[0] == "sweep_short") {
        window.kind = hw::FaultWindow::Kind::kSweepShort;
        window.magnitude = 1.0;
    } else {
        ctx.fail("unknown fault kind '" + tokens[0] +
                 "' (want dropout | saturation | drift | burst | "
                 "sweep_drop | sweep_short)");
    }
    window.start_s = parse_double(ctx, "start_s", tokens[1]);
    window.end_s = tokens[2] == "inf"
                       ? std::numeric_limits<double>::infinity()
                       : parse_double(ctx, "end_s", tokens[2]);
    if (window.start_s < 0.0 || window.end_s <= window.start_s)
        ctx.fail("fault window needs 0 <= start_s < end_s");
    for (std::size_t i = 3; i < tokens.size(); ++i) {
        const std::size_t eq = tokens[i].find('=');
        if (eq == std::string::npos)
            ctx.fail("expected key=value fault option, got '" + tokens[i] +
                     "'");
        const std::string key = tokens[i].substr(0, eq);
        const std::string val = tokens[i].substr(eq + 1);
        if (key == "rx") {
            const double rx = parse_double(ctx, key, val);
            if (rx < 0.0 || rx != std::floor(rx) || rx > 255.0)
                ctx.fail("'rx' must be a small non-negative integer, got '" +
                         val + "'");
            window.rx = static_cast<int>(rx);
        } else if (key == "level" || key == "ppm" || key == "gain" ||
                   key == "rate" || key == "mag") {
            window.magnitude = parse_double(ctx, key, val);
        } else {
            ctx.fail("unknown fault option '" + key + "'");
        }
    }
    const bool per_sweep = window.kind == hw::FaultWindow::Kind::kSweepDrop ||
                           window.kind == hw::FaultWindow::Kind::kSweepShort;
    if (per_sweep && (window.magnitude < 0.0 || window.magnitude > 1.0))
        ctx.fail("per-sweep fault rate must be in [0, 1]");
    if (window.kind == hw::FaultWindow::Kind::kSaturation &&
        window.magnitude <= 0.0)
        ctx.fail("saturation level must be > 0");
    return window;
}

std::unique_ptr<MotionScript> make_motion(const PersonSpec& person,
                                          double duration_s,
                                          std::uint64_t seed,
                                          std::uint64_t index) {
    switch (person.kind) {
        case PersonSpec::Kind::kStill:
            return std::make_unique<StandStillScript>(
                person.position, duration_s, person.center_height_m);
        case PersonSpec::Kind::kLine:
            return std::make_unique<LineWalkScript>(person.from, person.to,
                                                    duration_s,
                                                    person.center_height_m);
        case PersonSpec::Kind::kWaypoints:
        default:
            // Forks 10+ keep the walk decoupled from the scenario's own
            // forks (1..3), so adding a person never reseeds the channel.
            return std::make_unique<RandomWaypointWalk>(
                MotionBounds{}, duration_s, Rng(seed).fork(10 + index), 0.5,
                1.3, 0.25, person.center_height_m);
    }
}

}  // namespace

ScenarioSpec parse_scenario_text(const std::string& text,
                                 const std::string& source_name) {
    ScenarioSpec spec;
    std::istringstream in(text);
    std::string raw;
    std::size_t line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        const Context ctx{source_name, line_no};
        const std::size_t hash = raw.find('#');
        const std::string line =
            trim(hash == std::string::npos ? raw : raw.substr(0, hash));
        if (line.empty()) continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            ctx.fail("expected 'key = value', got '" + line + "'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty()) ctx.fail("missing key before '='");
        if (value.empty()) ctx.fail("missing value for '" + key + "'");

        if (key == "name") {
            spec.name = value;
        } else if (key == "seed") {
            spec.config.seed = parse_u64(ctx, key, value);
        } else if (key == "duration_s") {
            spec.duration_s = parse_double(ctx, key, value);
            if (spec.duration_s <= 0.0)
                ctx.fail("'duration_s' must be > 0, got '" + value + "'");
        } else if (key == "wall") {
            spec.config.wall_material = parse_wall(ctx, value);
        } else if (key == "through_wall") {
            spec.config.through_wall = parse_bool(ctx, key, value);
        } else if (key == "fast_capture") {
            spec.config.fast_capture = parse_bool(ctx, key, value);
        } else if (key == "cross_array") {
            spec.config.cross_array = parse_bool(ctx, key, value);
        } else if (key == "model_sweep_nonlinearity") {
            spec.config.model_sweep_nonlinearity = parse_bool(ctx, key, value);
        } else if (key == "device_height_m") {
            spec.config.device_height_m = parse_double(ctx, key, value);
            if (spec.config.device_height_m <= 0.0)
                ctx.fail("'device_height_m' must be > 0");
        } else if (key == "antenna_separation_m") {
            spec.config.antenna_separation_m = parse_double(ctx, key, value);
            if (spec.config.antenna_separation_m <= 0.0)
                ctx.fail("'antenna_separation_m' must be > 0");
        } else if (key == "person") {
            if (spec.persons.size() >= 2)
                ctx.fail("at most two 'person' lines are supported");
            spec.persons.push_back(parse_person(ctx, value));
        } else if (key == "fault_rates") {
            // Delegate to the shared WITRACK_HW_FAULTS spec parser; its
            // diagnostics gain this file's line context. The scripted
            // windows parsed so far are kept.
            try {
                hw::FaultConfig rates = hw::parse_fault_spec(value);
                rates.schedule = std::move(spec.faults.schedule);
                spec.faults = std::move(rates);
            } catch (const std::invalid_argument& error) {
                ctx.fail(error.what());
            }
        } else if (key == "fault") {
            spec.faults.schedule.push_back(parse_fault_window(ctx, value));
        } else {
            ctx.fail("unknown key '" + key + "'");
        }
    }
    if (spec.persons.empty())
        throw std::invalid_argument(
            source_name + ": scenario needs at least one 'person = ...' line");
    spec.config.second_person = spec.persons.size() > 1;
    return spec;
}

ScenarioSpec load_scenario_file(const std::string& path) {
    std::ifstream file(path);
    if (!file)
        throw std::runtime_error("scenario file: cannot open '" + path + "'");
    std::ostringstream contents;
    contents << file.rdbuf();
    return parse_scenario_text(contents.str(), path);
}

std::unique_ptr<Scenario> make_scenario(const ScenarioSpec& spec) {
    if (spec.persons.empty())
        throw std::invalid_argument("make_scenario: spec has no persons");
    auto first = make_motion(spec.persons[0], spec.duration_s,
                             spec.config.seed, 0);
    std::unique_ptr<MotionScript> second;
    if (spec.persons.size() > 1)
        second = make_motion(spec.persons[1], spec.duration_s,
                             spec.config.seed, 1);
    return std::make_unique<Scenario>(spec.config, std::move(first),
                                      std::move(second));
}

std::unique_ptr<hw::FaultInjector> make_fault_injector(
    const ScenarioSpec& spec) {
    if (!spec.has_faults()) return nullptr;
    return std::make_unique<hw::FaultInjector>(spec.faults);
}

}  // namespace witrack::sim
