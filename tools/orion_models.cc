/**
 * @file
 * orion_models — the standalone power-analysis tool the paper
 * promises in Section 3.2: evaluate any Table 2-4 component model for
 * arbitrary architectural and technology parameters, no simulator
 * involved. Examples:
 *
 *   orion_models buffer --flits 64 --bits 256
 *   orion_models crossbar --inputs 5 --outputs 5 --width 256 --mux-tree
 *   orion_models arbiter --requests 4 --kind rr
 *   orion_models link --length-um 3000 --width 256 --feature-um 0.07
 */

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/log.hh"
#include "core/model_cli.hh"

int
main(int argc, char** argv)
{
    namespace log = orion::core::log;
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        const std::string out = orion::cli::runModelQuery(args);
        std::fputs(out.c_str(), stdout);
        return 0;
    } catch (const std::exception& e) {
        log::diag(log::Level::Error, "models.error",
                  log::strf("%s\n", e.what()));
        return 1;
    }
}
