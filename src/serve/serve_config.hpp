/**
 * @file
 * Dotted-key string access to every ServeOptions field: the serve.*
 * key namespace, bound through the same KeyRegistry machinery
 * (common/key_registry.hpp) as the GpuConfig keys.
 *
 * One override path for both front ends:
 *
 *  - CLI sugar:    apres_serve --queue-depth 32
 *  - generic:      apres_serve --set serve.queueDepth=32
 *
 * The registry holds a reference to the options it was built over and
 * must not outlive them; construction is cheap, so build one on
 * demand.
 */

#ifndef APRES_SERVE_SERVE_CONFIG_HPP
#define APRES_SERVE_SERVE_CONFIG_HPP

#include "common/key_registry.hpp"
#include "serve/daemon.hpp"

namespace apres {

/** String-keyed view over one ServeOptions. */
class ServeConfigRegistry : public KeyRegistry
{
  public:
    /** Register every field of @p opts (must outlive the registry). */
    explicit ServeConfigRegistry(ServeOptions& opts);
};

} // namespace apres

#endif // APRES_SERVE_SERVE_CONFIG_HPP
